package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"pano/internal/abr"
	"pano/internal/client"
	"pano/internal/codec"
	"pano/internal/frame"
	"pano/internal/manifest"
	"pano/internal/mathx"
	"pano/internal/nettrace"
	"pano/internal/player"
	"pano/internal/provider"
	"pano/internal/quality"
	"pano/internal/sim"
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

// LUTRow summarizes the §6.3 lookup-table compression.
type LUTRow struct {
	Schema string
	Bytes  int
}

// LUTResult is the lut experiment's outcome: the schema sizes and the
// precision knee of each manifest field group.
type LUTResult struct {
	Sizes []LUTRow
	Knees []KneeRow
}

// LookupTableCompression reproduces §6.3: the PSPNR lookup table's size
// under the three schemas of Figure 12 (at the wire's 4-byte floats),
// plus the actual serialized manifest size, on a 5-minute-equivalent
// video; then the precision knee of every manifest field (PrecisionKnee).
func LookupTableCompression(d *Dataset) (LUTResult, *Table, error) {
	m, err := d.Manifest(d.TracedIndices()[0], provider.ModePano)
	if err != nil {
		return LUTResult{}, nil, err
	}
	// Scale the chunk count to a 5-minute video for the headline
	// numbers (the schema sizes are linear in chunks).
	scale := 300 / float64(m.NumChunks())
	full := int(float64(m.FullTableSize(8)) * scale)
	reduced := int(float64(m.ReducedTableSize()) * scale)
	power := int(float64(m.PowerTableSize()) * scale)
	wire, tiles := m.WireLen(), 0
	for k := range m.Chunks {
		tiles += len(m.Chunks[k].Tiles)
	}
	rows := []LUTRow{
		{Schema: "full (Fig 12a, n=8 per factor, 4 B floats)", Bytes: full},
		{Schema: "ratio-indexed (Fig 12b, 4 B floats)", Bytes: reduced},
		{Schema: "power-regression (Fig 12c, 4 B floats)", Bytes: power},
		{Schema: "manifest on the wire (actual, this video)", Bytes: wire},
	}
	t := &Table{
		Title:  "§6.3: PSPNR lookup table compression (5-minute video)",
		Header: []string{"schema", "size"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Schema, byteSize(r.Bytes)})
	}
	t.Rows = append(t.Rows, []string{"compression full→power",
		fmt.Sprintf("%.0fx", float64(full)/float64(power))})
	// The wire carries the power table plus what the client needs beside
	// it (rect, sizes, PSNR, the tile's viewing factors, object tracks);
	// the paper's ~50 KB for 5 minutes is ≈6 B per tile.
	t.Rows = append(t.Rows,
		[]string{"bytes per tile: power table", fmt.Sprint(m.PowerTableSize() / tiles)},
		[]string{"bytes per tile: manifest on the wire", fmt.Sprintf("%.1f", float64(wire)/float64(tiles))})

	// What the last two steps cost in accuracy, in dB of a tile's
	// estimate: the power fit against the one measured anchor the
	// manifest keeps (A = 1, RefPSPNR; capped cells are not fitted), and
	// the two tables the planner reads (PanoPlanner.CostRows) against the
	// power fit evaluated exactly, over one viewer's plan-time views.
	var fit, tables mathx.Stats
	planner := player.NewPanoPlanner()
	est := player.NewEstimator()
	tr := d.Traces(d.TracedIndices()[0])[0]
	var got []abr.TileChoice
	for k := range m.Chunks {
		view := est.View(m, tr, k, float64(k)*m.ChunkSec)
		got = planner.CostRows(got, m, k, view)
		for i := range m.Chunks[k].Tiles {
			tl := &m.Chunks[k].Tiles[i]
			ratio := planner.Profile.ActionRatio(player.FactorsFor(tl, view))
			for l := 0; l < codec.NumLevels; l++ {
				if ref := tl.RefPSPNR[l]; ref < quality.PSPNRCap {
					fit.Add(math.Abs(ref*tl.LUT[l].ACoeff - ref))
				}
				exact := float64(tl.Rect.Area()) * player.PMSEFromPSPNR(player.EstimatePSPNR(tl, codec.Level(l), ratio))
				if exact > 0 && got[i].Cost[l] > 0 {
					tables.Add(math.Abs(10 * math.Log10(got[i].Cost[l]/exact)))
				}
			}
		}
	}
	t.Rows = append(t.Rows,
		[]string{"error: power fit vs measured PSPNR at A=1 (mean / max)", fmt.Sprintf("%.2f / %.2f dB", fit.Mean(), fit.Max())},
		[]string{"error: plan-time tables vs power fit (mean / max)", fmt.Sprintf("%.1e / %.1e dB", tables.Mean(), tables.Max())})

	knees, err := PrecisionKnee(d)
	if err != nil {
		return LUTResult{}, nil, err
	}
	for _, k := range knees {
		t.Rows = append(t.Rows, []string{"precision knee: " + k.Group, k.cell()})
	}
	return LUTResult{Sizes: rows, Knees: knees}, t, nil
}

// binary32Bits is the significand width the wire keeps: binary32's 24
// bits, the leading one included.
const binary32Bits = 24

// KneeRow is one field group's precision knee: the fewest significand
// bits b such that rounding the group's floats to any width from b to
// binary32's 24 (mathx.RoundSignificand) moves no tile level of the
// knee sessions.
type KneeRow struct {
	Group string
	Bits  int
	// Moved is how many of the sessions' Levels tile levels move at
	// Bits−1; -1 where sim.Run refuses the manifest there instead (a
	// RefPSPNR rounded past 100 dB fails Validate).
	Moved, Levels int
}

func (r KneeRow) cell() string {
	switch {
	case r.Bits == 1:
		return fmt.Sprintf("1 of %d bits (no level moves)", binary32Bits)
	case r.Moved < 0:
		return fmt.Sprintf("%d of %d bits (at %d the manifest is refused)", r.Bits, binary32Bits, r.Bits-1)
	}
	return fmt.Sprintf("%d of %d bits (at %d, %d of %d levels move)", r.Bits, binary32Bits, r.Bits-1, r.Moved, r.Levels)
}

// eachLevel visits the float at(t, l) of every tile and level of a chunk.
func eachLevel(at func(t *manifest.Tile, l int) *float64) func(*manifest.Chunk, func(*float64)) {
	return func(c *manifest.Chunk, f func(*float64)) {
		for i := range c.Tiles {
			for l := 0; l < codec.NumLevels; l++ {
				f(at(&c.Tiles[i], l))
			}
		}
	}
}

// floatGroup is a set of manifest floats: visit calls f on each of them
// in one chunk.
type floatGroup struct {
	name  string
	visit func(c *manifest.Chunk, f func(*float64))
}

// kneeGroups are the manifest's floats as PrecisionKnee rounds them, one
// group at a time; together they are every float the wire carries.
var kneeGroups = []floatGroup{
	{"Bits", eachLevel(func(t *manifest.Tile, l int) *float64 { return &t.Bits[l] })},
	{"PSNR", eachLevel(func(t *manifest.Tile, l int) *float64 { return &t.PSNR[l] })},
	{"RefPSPNR", eachLevel(func(t *manifest.Tile, l int) *float64 { return &t.RefPSPNR[l] })},
	{"LUT.a", eachLevel(func(t *manifest.Tile, l int) *float64 { return &t.LUT[l].ACoeff })},
	{"LUT.b", eachLevel(func(t *manifest.Tile, l int) *float64 { return &t.LUT[l].BExp })},
	{"tile scalars", func(c *manifest.Chunk, f func(*float64)) {
		for i := range c.Tiles {
			t := &c.Tiles[i]
			f(&t.AvgLuma)
			f(&t.AvgDoF)
			f(&t.ObjSpeedDeg)
		}
	}},
	{"object samples", func(c *manifest.Chunk, f func(*float64)) {
		for i := range c.Objects {
			o := &c.Objects[i]
			f(&o.T)
			f(&o.Yaw)
			f(&o.Pitch)
			f(&o.SpeedDeg)
			f(&o.Depth)
		}
	}},
}

// errRoundedInvalid is PrecisionKnee's word for a rounding that leaves
// the manifest failing Validate (a RefPSPNR rounded past 100 dB).
var errRoundedInvalid = errors.New("rounded manifest fails Validate")

// PrecisionKnee measures how many significand bits the plans need
// (ROADMAP 5(c)): for each field group, and then for every float at
// once, the knee (KneeRow) over the first traced video's sessions — up
// to eight viewers × the two paper links × {Pano on its manifest, the
// viewport-driven baseline on the uniform one}, the baseline being the
// only planner that reads PSNR. The links are scaled off the unrounded
// Pano manifest, so only the client's manifest changes.
func PrecisionKnee(d *Dataset) ([]KneeRow, error) {
	vi := d.TracedIndices()[0]
	trs := d.Traces(vi)
	if len(trs) > 8 {
		trs = trs[:8]
	}
	type arm struct {
		m   *manifest.Video
		sys System
	}
	var arms []arm
	for _, s := range []System{SysPano, SysFlare} {
		mode, _ := s.components()
		m, err := d.Manifest(vi, mode)
		if err != nil {
			return nil, err
		}
		arms = append(arms, arm{m, s})
	}
	var links []*nettrace.Link
	for _, frac := range []float64{sim.Trace1Frac, sim.Trace2Frac} {
		links = append(links, sim.ScaledLink(arms[0].m, frac, d.Scale.Seed+uint64(vi)))
	}
	// levels plans every session on copies of the arms' manifests that
	// round has rounded, and returns every tile level in session order,
	// or errRoundedInvalid where a rounded manifest fails Validate.
	levels := func(round func(*manifest.Chunk)) ([]codec.Level, error) {
		var out []codec.Level
		for _, a := range arms {
			// A deep copy: what the provider emits survives the wire.
			m, err := manifest.Unmarshal(a.m.Marshal())
			if err != nil {
				return nil, err
			}
			for k := range m.Chunks {
				round(&m.Chunks[k])
			}
			if m.Validate() != nil {
				return nil, errRoundedInvalid
			}
			for _, tr := range trs {
				for _, link := range links {
					_, planner := a.sys.components()
					res, err := sim.Run(m, tr, link, planner, sim.DefaultConfig())
					if err != nil {
						return nil, err
					}
					for _, alloc := range res.PerChunkAlloc {
						out = append(out, alloc...)
					}
				}
			}
		}
		return out, nil
	}
	base, err := levels(func(*manifest.Chunk) {})
	if err != nil {
		return nil, err
	}
	groups := append(slices.Clip(kneeGroups), floatGroup{"every float", (*manifest.Chunk).Floats})
	var out []KneeRow
	for _, g := range groups {
		row := KneeRow{Group: g.name, Bits: binary32Bits, Levels: len(base)}
		for b := binary32Bits - 1; b >= 1; b-- {
			got, err := levels(func(c *manifest.Chunk) {
				g.visit(c, func(x *float64) { *x = mathx.RoundSignificand(*x, b) })
			})
			if errors.Is(err, errRoundedInvalid) {
				row.Moved = -1
				break
			}
			if err != nil {
				return nil, err
			}
			for i := range base {
				if got[i] != base[i] {
					row.Moved++
				}
			}
			if row.Moved > 0 {
				break
			}
			row.Bits = b
		}
		out = append(out, row)
	}
	return out, nil
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
