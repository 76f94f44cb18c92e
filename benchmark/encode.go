package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"time"

	"pano"
	"pano/internal/codec"
	"pano/internal/geom"
	"pano/internal/jnd"
	"pano/internal/live"
	"pano/internal/manifest"
	"pano/internal/obs"
	"pano/internal/provider"
	"pano/internal/quality"
	"pano/internal/server"
	"pano/internal/store"
	"pano/internal/tiling"
	"pano/internal/trace"
)

// providerEncode is the offline half of the paper and the store's write
// side: the live pipeline run back to back into a fresh store — capture
// → provider.ChunkAt (scene render, JND field, PMSE, tiling, rate model,
// LUT fit) → in-order publish (one Put per tile object, one manifest
// blob and catalog write per chunk). A chunk is 1 s of video, so
// ops_per_s is the live headroom over real time. Client, edge and fleet
// do nothing here.
type providerEncode struct {
	e    *env
	bv   *benchVideo
	root string
	want []byte // the chunks the VOD path produces, as JSON: what every feed must publish

	dir      string        // the most recent pass's store, kept for verify and quality
	reg      *obs.Registry // that store's registry
	rep      *live.Report  // that pass's report
	verified bool          // the full reopen check has run once
}

// setup prepares the expected output by the independent route: the
// whole-video VOD path. provider.ChunkAt promises chunks bit-identical to
// it, so every feed's published chunks must equal these.
func (w *providerEncode) setup(e *env) error {
	w.e = e
	w.bv = newBenchVideo(e.size)
	m, err := w.bv.preprocess()
	if err != nil {
		return err
	}
	if w.want, err = json.Marshal(m.Chunks); err != nil {
		return err
	}
	w.root, err = os.MkdirTemp(e.tmp, "encode-")
	return err
}

func (w *providerEncode) close() {
	if w.root != "" {
		os.RemoveAll(w.root)
	}
	*w = providerEncode{}
}

func (w *providerEncode) pass(tr *trace.Tracer) (passResult, error) {
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
	dir, err := os.MkdirTemp(w.root, "store-")
	if err != nil {
		return passResult{}, err
	}
	w.dir, w.reg = dir, obs.NewRegistry()

	_, sp := tr.Start(context.Background(), "live.run")
	t0 := time.Now()
	st, rep, err := w.bv.publish(dir, w.reg)
	wall := time.Since(t0)
	sp.End()
	if err != nil {
		return passResult{}, err
	}
	w.rep = rep

	pr := passResult{ops: rep.Chunks, wall: wall}
	cat, err := st.ReadCatalog()
	if err != nil {
		return pr, err
	}
	pr.digest = cat.Manifest
	pr.counts = map[string]float64{
		"puts":  w.reg.CounterValue("pano_store_puts_total"),
		"dedup": w.reg.CounterValue("pano_store_dedup_total"),
		"tiles": float64(len(cat.Tiles)),
	}
	// The first pass's store is reopened and read back in full; later
	// passes must publish the same manifest blob, which names the same
	// tile sizes, and the same number of blobs.
	if !w.verified {
		bad, err := w.reopen()
		if err != nil {
			return pr, err
		}
		pr.failed = bad
		w.verified = true
	}
	return pr, nil
}

// reopen opens the published directory as a new origin would — scrub
// and all — and reads every tile back. It returns how many of the
// chunks hold an object that is missing or wrong.
func (w *providerEncode) reopen() (badChunks int, err error) {
	st, err := store.Open(w.dir)
	if err != nil {
		return 0, err
	}
	b, err := store.NewBackend(st)
	if err != nil {
		return 0, err
	}
	m, _, _, err := b.Manifest()
	if err != nil {
		return 0, err
	}
	if err := m.Validate(); err != nil {
		return 0, fmt.Errorf("published manifest: %w", err)
	}
	if m.Live {
		return 0, fmt.Errorf("published manifest is still live after the feed ended")
	}
	if got, err := json.Marshal(m.Chunks); err != nil || !bytes.Equal(got, w.want) {
		return 0, fmt.Errorf("published chunks differ from the VOD path's (%v)", err)
	}
	for k := range m.Chunks {
		ok := true
		for ti := range m.Chunks[k].Tiles {
			for l := 0; l < codec.NumLevels; l++ {
				lv := codec.Level(l)
				want := server.TileSizeBytes(&m.Chunks[k].Tiles[ti], lv)
				data, err := b.TileData(k, ti, lv)
				if err != nil || len(data) != want || !bytes.Equal(data, server.TilePayload(k, ti, lv, want)) {
					ok = false
				}
			}
		}
		if !ok {
			badChunks++
		}
	}
	return badChunks, nil
}

func (w *providerEncode) verify() error {
	if w.rep.Degraded != 0 {
		return fmt.Errorf("%d chunks were encoded at the degraded rung with no deadline set", w.rep.Degraded)
	}
	return nil
}

// quality reads the published manifest back from the store and runs the
// reference viewing on it: what a viewer gets from what was encoded.
func (w *providerEncode) quality() (metrics, error) {
	st, err := store.Open(w.dir)
	if err != nil {
		return nil, err
	}
	b, err := store.NewBackend(st)
	if err != nil {
		return nil, err
	}
	m, body, _, err := b.Manifest()
	if err != nil {
		return nil, err
	}
	return referenceViewing(w.e, w.bv, m, float64(len(body))/1024)
}

func (w *providerEncode) layers(p *prober) error {
	g := p.got
	n := max(p.calls/10, 1)
	v := w.bv.video
	cfg := provider.DefaultConfig()
	var firstErr error
	fail := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// Stage probes on the bench video's frames, at the process-wide
	// worker count the provider itself runs them at.
	frames := v.Frames()
	orig := v.RenderFrame(0)
	next := v.RenderFrame(v.FPS / 2)
	full := geom.Rect{X1: orig.W, Y1: orig.H}
	g["scene.render_frame_us"] = p.timeUS("scene.render_frame", n, func(_ context.Context, i int) {
		v.RenderFrame(i * cfg.FrameStride % frames)
	})
	field := jnd.ContentField(orig, full)
	g["jnd.content_field_us"] = p.timeUS("jnd.content_field", n, func(context.Context, int) {
		jnd.ContentField(orig, full)
	})
	mid := codec.Level(codec.NumLevels / 2)
	enc, err := cfg.Encoder.DistortRegion(orig, full, mid.QP())
	if err != nil {
		return err
	}
	g["codec.distort_us"] = p.timeUS("codec.distort", n, func(context.Context, int) {
		_, err := cfg.Encoder.DistortRegion(orig, full, mid.QP())
		fail(err)
	})
	g["quality.pmse_us"] = p.timeUS("quality.pmse", n, func(context.Context, int) {
		_, err := quality.PMSE(orig, enc, field)
		fail(err)
	})
	unit := tiling.Grid12x24.Rects(v.W, v.H)
	g["codec.tile_bits_us"] = p.timeUS("codec.tile_bits", 10*n, func(_ context.Context, i int) {
		cfg.Encoder.TileChunkBits(orig, next, unit[i%len(unit)], mid.QP(), v.FPS)
	})
	g["tiling.plan_us"] = p.timeUS("tiling.plan", n, func(context.Context, int) {
		_, err := tiling.Plan(tiling.UnitRows, tiling.UnitCols, cfg.Tiles, func(r, c int) float64 {
			return orig.MeanLuma(unit[r*tiling.UnitCols+c])
		})
		fail(err)
	})
	pspnrs := make([]float64, len(manifest.AnchorRatios))
	for i, a := range manifest.AnchorRatios {
		pspnrs[i] = 40 * math.Pow(a, 0.15)
	}
	g["manifest.fit_lut_us"] = p.timeUS("manifest.fit_lut", 10*n, func(context.Context, int) {
		manifest.FitPowerLUT(40, manifest.AnchorRatios, pspnrs)
	})

	// One chunk through the whole provider, then what is left once the
	// exported stages are taken out at their per-chunk call counts.
	chunks := w.e.size.videoSec
	at := p.run("provider.chunk_at", max(n, chunks), func(_ context.Context, i int) {
		_, err := provider.ChunkAt(v, w.bv.history, cfg, i%chunks)
		fail(err)
	})
	atDur := rootDurations(at)
	g["provider.chunk_at_ms_p50"] = percentile(atDur, 0.5).Seconds() * 1e3
	g["provider.chunk_at_ms_p90"] = percentile(atDur, 0.9).Seconds() * 1e3
	allocs, bytesPer := p.allocs(min(n, 2), func(i int) { provider.ChunkAt(v, w.bv.history, cfg, i%chunks) })
	g["provider.chunk_at_allocs"] = allocs
	g["provider.chunk_at_mb"] = bytesPer / (1 << 20)
	samples := float64((v.FPS + cfg.FrameStride - 1) / cfg.FrameStride)
	perLevel := float64(cfg.Tiles * codec.NumLevels)
	stagesUS := (samples+1)*g["scene.render_frame_us"] + samples*g["jnd.content_field_us"] +
		samples*float64(codec.NumLevels)*g["codec.distort_us"] + perLevel*g["codec.tile_bits_us"] +
		g["tiling.plan_us"] + perLevel*g["manifest.fit_lut_us"]
	g["provider.self_ms"] = g["provider.chunk_at_ms_p50"] - stagesUS/1e3

	// The whole-video VOD path (Fig. 17c), and what the worker pool buys.
	var m *manifest.Video
	g["provider.preprocess_ms"] = p.timeUS("provider.preprocess", min(n, 2), func(context.Context, int) {
		var err error
		m, err = w.bv.preprocess()
		fail(err)
	}) / 1e3
	prev := pano.SetParallelism(1)
	serialMS := p.timeUS("provider.preprocess_w1", min(n, 2), func(context.Context, int) {
		_, err := w.bv.preprocess()
		fail(err)
	}) / 1e3
	pano.SetParallelism(prev)
	g["parallel.speedup_x"] = serialMS / g["provider.preprocess_ms"]
	if firstErr != nil {
		return firstErr
	}

	var wire bytes.Buffer
	g["manifest.encode_us"] = p.timeUS("manifest.encode", n, func(context.Context, int) {
		wire.Reset()
		fail(m.Encode(&wire))
	})
	g["manifest.decode_us"] = p.timeUS("manifest.decode", n, func(context.Context, int) {
		_, err := manifest.Decode(bytes.NewReader(wire.Bytes()))
		fail(err)
	})

	// The store's write side alone, in a scratch store: distinct blobs
	// of the mean tile size, and a catalog as large as the feed's last.
	scratch, err := os.MkdirTemp(w.root, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	st, err := store.Open(scratch)
	if err != nil {
		return err
	}
	payload := make([]byte, 1800)
	g["store.put_us"] = p.timeUS("store.put", 10*n, func(_ context.Context, i int) {
		copy(payload, strconv.Itoa(i))
		_, err := st.Put(payload)
		fail(err)
	})
	feed, err := w.pass(nil)
	if err != nil {
		return err
	}
	pub, err := store.Open(w.dir)
	if err != nil {
		return err
	}
	cat, err := pub.ReadCatalog()
	if err != nil {
		return err
	}
	g["store.write_catalog_us"] = p.timeUS("store.write_catalog", n, func(context.Context, int) {
		fail(st.WriteCatalog(cat))
	})
	g["store.open_scrub_ms"] = p.timeUS("store.open_scrub", n, func(context.Context, int) {
		_, err := store.Open(w.dir)
		fail(err)
	}) / 1e3
	g["live.publish_ms_mean"] = w.rep.MeanPublishLatency.Seconds() * 1e3
	g["live.publish_ms_max"] = w.rep.MaxPublishLatency.Seconds() * 1e3
	g["live.degraded"] = float64(w.rep.Degraded)
	g["store.puts"] = feed.counts["puts"]
	g["store.dedup"] = feed.counts["dedup"]
	return firstErr
}
