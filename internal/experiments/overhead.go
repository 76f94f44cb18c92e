package experiments

import (
	"context"
	"fmt"
	"time"

	"pano/internal/client"
	"pano/internal/codec"
	"pano/internal/frame"
	"pano/internal/provider"
	"pano/internal/testbed"
	"pano/internal/trace"
)

// Fig17aRow is one stage of the client-side CPU breakdown.
type Fig17aRow struct {
	System     System
	Stage      string
	MsPerChunk float64
}

// Fig17a reproduces Figure 17(a): per-chunk client CPU time split into
// quality adaptation, downloading, decoding, and rendering, for Pano
// vs the viewport-driven baseline. Adaptation (estimate, mpc, assign)
// and download (fetch: the chunk's turn of tile GETs) are phases of a
// traced three-chunk Client.Stream session, as the trace experiment
// breaks them down. Decoding is proxied by the codec's per-pixel
// reconstruction of the delivered tiles; rendering by the row-major
// tile stitch of §7.
func Fig17a(d *Dataset) ([]Fig17aRow, *Table, error) {
	var rows []Fig17aRow
	t := &Table{
		Title:  "Figure 17a: client-side CPU per chunk (ms)",
		Header: []string{"system", "adaptation", "download", "decode", "render"},
	}
	vi := d.TracedIndices()[0]
	v := d.Video(vi)
	tr := d.Traces(vi)[0]
	enc := codec.NewEncoder()
	tb := testbed.New()
	defer tb.Close()

	for _, s := range []System{SysFlare, SysPano} {
		mode, planner := s.components()
		m, err := d.Manifest(vi, mode)
		if err != nil {
			return nil, nil, err
		}
		origin, err := tb.AddOrigin(testbed.OriginConfig{Manifest: m})
		if err != nil {
			return nil, nil, err
		}
		tracer := trace.New(trace.Config{Seed: 7})
		res, err := tb.Client(origin.URL).Stream(context.Background(), tr, client.StreamConfig{
			Planner: planner, MaxChunks: 3, MaxRateBps: testbed.RateCap(m),
			Fetch: testbed.LoopbackPolicy(), Trace: tracer,
		})
		if err != nil {
			return nil, nil, err
		}
		_, ph, err := sessionPhases(tracer, res.TraceID) // estimate, mpc, assign, fetch, stitch
		if err != nil {
			return nil, nil, err
		}
		adaptMs := (ph[0].TotalSec + ph[1].TotalSec + ph[2].TotalSec) * 1e3
		dlMs := ph[3].TotalSec * 1e3

		var decodeMs, renderMs float64
		for _, ch := range res.Chunks {
			k := ch.Chunk
			// Decode proxy: reconstruct every tile's pixels at its level.
			key := v.RenderFrame(k * v.FPS)
			tiles := map[int]*frame.Frame{}
			t0 := time.Now()
			for ti, l := range ch.Levels {
				df, err := enc.DistortRegion(key, m.Chunks[k].Tiles[ti].Rect, l.QP())
				if err != nil {
					return nil, nil, err
				}
				tiles[ti] = df
			}
			decodeMs += time.Since(t0).Seconds() * 1e3

			t0 = time.Now()
			if err := client.Stitch(m, k, tiles, frame.New(m.W, m.H)); err != nil {
				return nil, nil, err
			}
			renderMs += time.Since(t0).Seconds() * 1e3
		}
		n := float64(len(res.Chunks))
		cells := []string{s.String()}
		for i, ms := range []float64{adaptMs, dlMs, decodeMs, renderMs} {
			rows = append(rows, Fig17aRow{System: s, Stage: t.Header[i+1], MsPerChunk: ms / n})
			cells = append(cells, f2(ms/n))
		}
		t.Rows = append(t.Rows, cells)
	}
	return rows, t, nil
}

// Fig17bRow is the start-up delay breakdown for one system.
type Fig17bRow struct {
	System        System
	ManifestBytes int
	ManifestMs    float64
	FirstChunkMs  float64
}

// Fig17b reproduces Figure 17(b): video start-up delay split into
// manifest download (Pano's is larger: it embeds the PSPNR lookup
// table) and first-chunk download (Pano's is smaller at equal quality).
func Fig17b(d *Dataset) ([]Fig17bRow, *Table, error) {
	var rows []Fig17bRow
	t := &Table{
		Title:  "Figure 17b: start-up delay breakdown",
		Header: []string{"system", "manifest_KB", "manifest_ms", "first_chunk_ms"},
	}
	vi := d.TracedIndices()[0]
	tr := d.Traces(vi)[0]
	tb := testbed.New()
	defer tb.Close()
	for _, s := range []System{SysFlare, SysPano} {
		mode, planner := s.components()
		m, err := d.Manifest(vi, mode)
		if err != nil {
			return nil, nil, err
		}
		origin, err := tb.AddOrigin(testbed.OriginConfig{Manifest: m})
		if err != nil {
			return nil, nil, err
		}
		cl := tb.Client(origin.URL)

		t0 := time.Now()
		if _, err := cl.FetchManifest(context.Background()); err != nil {
			return nil, nil, err
		}
		manifestMs := time.Since(t0).Seconds() * 1e3

		res, err := cl.Stream(context.Background(), tr, client.StreamConfig{
			Planner: planner, MaxChunks: 1,
		})
		if err != nil {
			return nil, nil, err
		}
		r := Fig17bRow{System: s, ManifestBytes: m.WireLen(), ManifestMs: manifestMs,
			FirstChunkMs: res.Chunks[0].Download.Seconds() * 1e3}
		rows = append(rows, r)
		t.Rows = append(t.Rows, []string{s.String(),
			f1(float64(r.ManifestBytes) / 1024), f2(r.ManifestMs), f2(r.FirstChunkMs)})
	}
	return rows, t, nil
}

// Fig17cRow is the preprocessing time for one system.
type Fig17cRow struct {
	System       System
	SecPerMinute float64
}

// Fig17c reproduces Figure 17(c): provider-side preprocessing time per
// minute of video (encoding analysis, tiling, lookup-table formation).
func Fig17c(d *Dataset) ([]Fig17cRow, *Table, error) {
	var rows []Fig17cRow
	t := &Table{
		Title:  "Figure 17c: preprocessing time per minute of video",
		Header: []string{"system", "sec_per_min"},
	}
	vi := d.TracedIndices()[0]
	v := d.Video(vi)
	trs := d.Traces(vi)
	if len(trs) > 2 {
		trs = trs[:2]
	}
	for _, s := range []System{SysFlare, SysPano} {
		mode, _ := s.components()
		cfg := provider.DefaultConfig()
		cfg.Mode = mode
		t0 := time.Now()
		if _, err := provider.Preprocess(v, trs, cfg); err != nil {
			return nil, nil, err
		}
		el := time.Since(t0).Seconds()
		perMin := el * 60 / float64(v.DurationSec)
		rows = append(rows, Fig17cRow{System: s, SecPerMinute: perMin})
		t.Rows = append(t.Rows, []string{s.String(), f2(perMin)})
	}
	return rows, t, nil
}

func byteSize(b int) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}
