package experiments

import (
	"fmt"
	"math"
	"slices"

	"pano/internal/abr"
	"pano/internal/codec"
	"pano/internal/jnd"
	"pano/internal/manifest"
	"pano/internal/mathx"
	"pano/internal/nettrace"
	"pano/internal/player"
	"pano/internal/provider"
	"pano/internal/quality"
	"pano/internal/scene"
	"pano/internal/sim"
	"pano/internal/viewport"
)

// LUTRow summarizes the §6.3 lookup-table compression.
type LUTRow struct {
	Schema string
	Bytes  int
}

// LUTResult is the lut experiment's outcome: the schema sizes, the
// precision knees of every manifest field group and what the wire's
// precision costs, on the quick and on the benchmark video.
type LUTResult struct {
	Sizes []LUTRow
	Knees []KneeRow
	Wire  []WireRow
}

// LookupTableCompression reproduces §6.3: the PSPNR lookup table's size
// under the three schemas of Figure 12 (at 4-byte floats), plus the
// actual serialized manifest size, on a 5-minute-equivalent video; then,
// on the quick and the benchmark video, the wire's bytes per tile by
// field group, each group's precision knees (KneeRow) and what the
// wire's precision does to the plans (WireRow).
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
	rows := []LUTRow{
		{Schema: "full (Fig 12a, n=8 per factor, 4 B floats)", Bytes: full},
		{Schema: "ratio-indexed (Fig 12b, 4 B floats)", Bytes: reduced},
		{Schema: "power-regression (Fig 12c, 4 B floats)", Bytes: power},
		{Schema: "manifest on the wire (actual, this video)", Bytes: m.WireLen()},
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
	t.Rows = append(t.Rows, []string{"bytes per tile: power table (4 B floats)", fmt.Sprint(m.PowerTableSize() / tileCount(m))})

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

	res := LUTResult{Sizes: rows}
	quick, err := quickKneeVideo(d)
	if err != nil {
		return LUTResult{}, nil, err
	}
	bench, err := benchKneeVideo()
	if err != nil {
		return LUTResult{}, nil, err
	}
	for _, v := range []*kneeVideo{quick, bench} {
		w, knees, err := v.measure()
		if err != nil {
			return LUTResult{}, nil, err
		}
		res.Wire, res.Knees = append(res.Wire, w), append(res.Knees, knees...)
		t.Rows = append(t.Rows, w.rows(knees)...)
	}
	return res, t, nil
}

func tileCount(m *manifest.Video) int {
	n := 0
	for k := range m.Chunks {
		n += len(m.Chunks[k].Tiles)
	}
	return n
}

// maxFallDB is the consequence criterion's bound: a precision is enough
// when, besides no plan costing more at the exact sizes than at the
// rounded ones, mean plan PSPNR by the exact tables falls by at most
// this much.
const maxFallDB = 0.01

// KneeRow is one field group's precision knees on one video. A
// precision is a count of significand bits for the sizes (FieldGroup.Log)
// and a step of 2^-p for every other group. Identity is the coarsest
// precision at which, and at every finer one scanned, no tile level of
// the video's sessions moves; Consequence the coarsest at which, and at
// every finer one, no plan exceeds its budget at the exact sizes and
// mean plan PSPNR by the exact tables falls by at most maxFallDB; Wire
// the wire's. A knee at the scan's end (the object samples, which no
// planner reads) means nothing scanned moved a plan.
type KneeRow struct {
	Video, Group string
	Log          bool
	Identity     int
	Consequence  int
	Wire         int
}

// WireRow is what the wire's precision, every group at once, does to
// one video's sessions against the exact manifests: the fall in mean
// plan PSPNR (by the exact tables), the plans that cost more at the
// exact sizes than at the wire's, and the change in the sessions' total
// stall and start-up; and the wire's bytes per tile, by field group
// (manifest.WireBytes order) and in all.
type WireRow struct {
	Video              string
	FallDB             float64
	OverBudget         int
	StallSec, StartSec float64
	BytesPerTile       float64
	GroupBytes         []float64
}

func (w WireRow) rows(knees []KneeRow) [][]string {
	v := w.Video
	rows := [][]string{
		{"bytes per tile on the wire, " + v, fmt.Sprintf("%.1f", w.BytesPerTile)},
	}
	groups := manifest.FieldGroups()
	names := []string{"rects", "framing"}
	for i, b := range w.GroupBytes {
		name := ""
		if i < len(groups) {
			name = groups[i].Name
		} else {
			name = names[i-len(groups)]
		}
		rows = append(rows, []string{fmt.Sprintf("bytes per tile, %s: %s", v, name), fmt.Sprintf("%.2f", b)})
	}
	for _, k := range knees {
		knee := func(p int) string {
			if k.Log && p == kneeLogCoarsest || !k.Log && p == kneeCoarsest {
				return "none to " + precision(k.Log, p)
			}
			return precision(k.Log, p)
		}
		rows = append(rows, []string{fmt.Sprintf("precision knee, %s: %s", v, k.Group), fmt.Sprintf("identity %s · consequence %s · wire %s",
			knee(k.Identity), knee(k.Consequence), precision(k.Log, k.Wire))})
	}
	return append(rows, []string{"wire vs exact, " + v + ": PSPNR fall · plans over budget · stall · start-up",
		fmt.Sprintf("%.4f dB · %d · %+.3f s · %+.4f s", w.FallDB, w.OverBudget, w.StallSec, w.StartSec)})
}

// precision renders a precision: significand bits, or the step.
func precision(log bool, p int) string {
	switch {
	case log:
		return fmt.Sprintf("%d bits", p)
	case p >= 0:
		return fmt.Sprintf("1/%d", 1<<p)
	}
	return fmt.Sprint(1 << -p)
}

// The scan runs from kneeScanFiner precisions finer than the wire's down
// to one significand bit, or to a step of 2^8; a knee there reads "none
// to" it: nothing scanned moved a plan.
const (
	kneeScanFiner   = 12
	kneeCoarsest    = -8
	kneeLogFinest   = 52
	kneeLogCoarsest = 1
)

// kneeVideo is a video the knees are measured on: its exact manifests
// (provider.PreprocessExact) and the sessions that plan on them, each
// with the views its chunks are scored at.
type kneeVideo struct {
	name     string
	sessions []kneeSession
}

type kneeSession struct {
	exact   *manifest.Video
	planner func() player.Planner
	tr      *viewport.Trace
	link    *nettrace.Link
	views   []player.ChunkView // the actual view of every chunk
}

// kneePair is a viewer and the link it watches over.
type kneePair struct {
	tr   *viewport.Trace
	link *nettrace.Link
}

// kneeArms are the systems a knee video's sessions run: Pano on its
// manifest, and the viewport-driven baseline — the one planner that
// reads PSNR — on the uniform one.
var kneeArms = []System{SysPano, SysFlare}

// newKneeVideo preprocesses v exactly for each arm, with history, and
// pairs every arm with every (trace, link) pair.
func newKneeVideo(name string, v *scene.Video, history []*viewport.Trace, pairs func(pano *manifest.Video) []kneePair) (*kneeVideo, error) {
	kv := &kneeVideo{name: name}
	var pano *manifest.Video
	est, arms := player.NewEstimator(), make([]*manifest.Video, len(kneeArms))
	for i, s := range kneeArms {
		mode, _ := s.components()
		cfg := provider.DefaultConfig()
		cfg.Mode = mode
		m, err := provider.PreprocessExact(v, history, cfg)
		if err != nil {
			return nil, err
		}
		arms[i] = m
		if s == SysPano {
			pano = m
		}
	}
	for i, s := range kneeArms {
		for _, p := range pairs(pano) {
			se := kneeSession{exact: arms[i], tr: p.tr, link: p.link}
			se.planner = func() player.Planner { _, pl := s.components(); return pl }
			for k := range se.exact.Chunks {
				se.views = append(se.views, est.ActualView(se.exact, se.tr, k))
			}
			kv.sessions = append(kv.sessions, se)
		}
	}
	return kv, nil
}

// quickKneeVideo is the dataset's first traced video: up to eight of its
// viewers, each over the two paper links scaled off its exact Pano
// manifest, its first four viewers the provider's history (as
// Dataset.Manifest takes them).
func quickKneeVideo(d *Dataset) (*kneeVideo, error) {
	vi := d.TracedIndices()[0]
	trs := d.Traces(vi)
	return newKneeVideo("quick", d.Video(vi), d.history(vi), func(pano *manifest.Video) []kneePair {
		var out []kneePair
		for _, frac := range []float64{sim.Trace1Frac, sim.Trace2Frac} {
			link := sim.ScaledLink(pano, frac, d.Scale.Seed+uint64(vi))
			for _, tr := range trs[:min(len(trs), 8)] {
				out = append(out, kneePair{tr, link})
			}
		}
		return out
	})
}

// benchContentSeed and the sizes below are the benchmark's input
// (benchmark/input.go): the 8 s Sports video at 480×240@30 of content
// seed 2019, eight viewers, the first four the provider's history, and
// vod_session's links — each viewer over its own link at each of the
// two fractions of the top rate, without the seed's jitter.
const benchContentSeed = 2019

func benchKneeVideo() (*kneeVideo, error) {
	v := scene.Generate(scene.Sports, benchContentSeed, scene.Options{W: 480, H: 240, FPS: 30, DurationSec: 8})
	var viewers []*viewport.Trace
	for u := 0; u < 8; u++ {
		viewers = append(viewers, viewport.Synthesize(v, benchContentSeed+uint64(u), viewport.DefaultSynthesizeOpts()))
	}
	return newKneeVideo("bench", v, viewers[:4], func(pano *manifest.Video) []kneePair {
		var out []kneePair
		for _, frac := range []float64{sim.Trace1Frac, sim.Trace2Frac} {
			for u, tr := range viewers {
				out = append(out, kneePair{tr, sim.ScaledLink(pano, frac, benchContentSeed+uint64(u))})
			}
		}
		return out
	})
}

// kneeOutcome is what a knee video's sessions did on manifests a
// rounding made: every tile level in session order, the mean per-chunk
// plan PSPNR by the exact tables, the chunks whose plan costs more at
// the exact sizes than at the rounded ones, and the sessions' total
// stall and start-up. invalid marks a rounding that leaves a manifest
// failing Validate (a RefPSPNR rounded past 100 dB).
type kneeOutcome struct {
	levels         []codec.Level
	pspnr          float64
	over           int
	stall, startup float64
	invalid        bool
}

// run plans every session on a copy of its exact manifest that round
// has rounded, chunk by chunk.
func (kv *kneeVideo) run(round func(*manifest.Chunk)) (kneeOutcome, error) {
	var o kneeOutcome
	prof := jnd.Default()
	rounded := map[*manifest.Video]*manifest.Video{}
	chunks := 0
	for _, se := range kv.sessions {
		m := rounded[se.exact]
		if m == nil {
			m = cloneVideo(se.exact)
			for k := range m.Chunks {
				round(&m.Chunks[k])
			}
			if m.Validate() != nil {
				return kneeOutcome{invalid: true}, nil
			}
			rounded[se.exact] = m
		}
		res, err := sim.Run(m, se.tr, se.link, se.planner(), sim.DefaultConfig())
		if err != nil {
			return o, err
		}
		for k, alloc := range res.PerChunkAlloc {
			o.levels = append(o.levels, alloc...)
			o.pspnr += player.FramePSPNR(se.exact, k, alloc, se.views[k], prof)
			chunks++
			var exact, wire float64
			for i, l := range alloc {
				exact += se.exact.Chunks[k].Tiles[i].Bits[l]
				wire += m.Chunks[k].Tiles[i].Bits[l]
			}
			if exact > wire {
				o.over++
			}
		}
		o.stall += res.StallSec
		o.startup += res.StartupDelaySec
	}
	o.pspnr /= float64(chunks)
	return o, nil
}

// cloneVideo copies m deep enough for a rounding to leave m as it is.
func cloneVideo(m *manifest.Video) *manifest.Video {
	c := *m
	c.Chunks = slices.Clone(m.Chunks)
	for k := range c.Chunks {
		c.Chunks[k].Tiles = slices.Clone(c.Chunks[k].Tiles)
		c.Chunks[k].Objects = slices.Clone(c.Chunks[k].Objects)
	}
	return &c
}

// measure runs kv's sessions on the exact manifests, on the wire's
// rounding of them, and on each field group rounded alone at every
// precision of its scan, fine to coarse, until the consequence
// criterion fails.
func (kv *kneeVideo) measure() (WireRow, []KneeRow, error) {
	base, err := kv.run(func(*manifest.Chunk) {})
	if err != nil {
		return WireRow{}, nil, err
	}
	wire, err := kv.run((*manifest.Chunk).RoundToWire)
	if err != nil || wire.invalid {
		return WireRow{}, nil, fmt.Errorf("lut: %s: the wire's rounding: invalid %v, %v", kv.name, wire.invalid, err)
	}
	w := WireRow{Video: kv.name, FallDB: base.pspnr - wire.pspnr, OverBudget: wire.over,
		StallSec: wire.stall - base.stall, StartSec: wire.startup - base.startup}
	// The bytes: the sessions' first exact manifest (Pano's) as the
	// provider emits it.
	pano := cloneVideo(kv.sessions[0].exact)
	for k := range pano.Chunks {
		pano.Chunks[k].RoundToWire()
	}
	tiles := float64(tileCount(pano))
	w.BytesPerTile = float64(pano.WireLen()) / tiles
	for _, b := range pano.WireBytes() {
		w.GroupBytes = append(w.GroupBytes, b/tiles)
	}

	var knees []KneeRow
	for _, g := range manifest.FieldGroups() {
		finest, coarsest := g.Prec+kneeScanFiner, kneeCoarsest
		if g.Log {
			finest, coarsest = min(finest, kneeLogFinest), kneeLogCoarsest
		}
		row := KneeRow{Video: kv.name, Group: g.Name, Log: g.Log, Wire: g.Prec, Identity: finest + 1, Consequence: finest + 1}
		moved := false
		for p := finest; p >= coarsest; p-- {
			o, err := kv.run(func(c *manifest.Chunk) { g.Round(c, p) })
			if err != nil {
				return WireRow{}, nil, err
			}
			if moved = moved || o.invalid || !slices.Equal(o.levels, base.levels); !moved {
				row.Identity = p
			}
			if o.invalid || o.over > 0 || base.pspnr-o.pspnr > maxFallDB {
				break
			}
			row.Consequence = p
		}
		knees = append(knees, row)
	}
	return w, knees, nil
}
