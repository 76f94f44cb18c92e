package player

import (
	"math"
	"slices"
	"sync"
	"testing"

	"pano/internal/abr"
	"pano/internal/codec"
	"pano/internal/geom"
	"pano/internal/jnd"
	"pano/internal/manifest"
	"pano/internal/provider"
	"pano/internal/quality"
	"pano/internal/scene"
	"pano/internal/viewport"
)

// rowBoundDB is the stated accuracy of a table-read cost cell against
// the exact one (DESIGN.md, "Plan-time cost rows").
const rowBoundDB = 1e-4

// exactCostRows is the definition the tables are held to: the rows as
// Plan built them before CostRows existed, one Pow and one Exp per cell.
func exactCostRows(p *PanoPlanner, m *manifest.Video, k int, view ChunkView) []abr.TileChoice {
	prof := p.Profile
	if prof == nil {
		prof = jnd.Default()
	}
	rows := make([]abr.TileChoice, len(m.Chunks[k].Tiles))
	for i := range m.Chunks[k].Tiles {
		t := &m.Chunks[k].Tiles[i]
		ratio := 1.0
		if !p.Traditional {
			ratio = 1 + (prof.ActionRatio(FactorsFor(t, view)) - 1)
		}
		area := float64(t.Rect.Area())
		for l := 0; l < codec.NumLevels; l++ {
			rows[i].Bits[l] = t.Bits[l]
			rows[i].Cost[l] = area * PMSEFromPSPNR(EstimatePSPNR(t, codec.Level(l), ratio))
		}
	}
	return rows
}

// cellErrorDB compares one table-read cell with the exact one: ok is
// false when exactly one of them is zero, db is |10·log10(got ÷ want)|
// otherwise (0 for two zeros).
func cellErrorDB(got, want float64) (db float64, ok bool) {
	if got == 0 || want == 0 {
		return 0, got == want
	}
	return math.Abs(10 * math.Log10(got/want)), true
}

// ratioProfile is a profile whose action ratio is a for any tile moving
// slower than the viewpoint, so a test can put any A — below 1 too —
// through CostRows.
func ratioProfile(a float64) (*jnd.Profile, ChunkView) {
	flat := []float64{1, 1}
	return &jnd.Profile{
		SpeedX: []float64{0, 1}, SpeedY: []float64{1, a},
		DoFX: []float64{0, 1}, DoFY: flat,
		LumaX: []float64{0, 1}, LumaY: flat,
	}, ChunkView{SpeedLB: 1}
}

// lutCell is one (tile, level) entry of a manifest's lookup table.
type lutCell struct {
	ref float64
	fit manifest.PowerLUT
}

// lutManifest is a one-chunk manifest of static 10×10 tiles holding the
// given cells in order, five to a tile (the last one repeated to fill
// the last tile).
func lutManifest(cells []lutCell) *manifest.Video {
	tiles := make([]manifest.Tile, (len(cells)+codec.NumLevels-1)/codec.NumLevels)
	for i := range tiles {
		tiles[i].Rect = geom.Rect{X1: 10, Y1: 10}
		for l := 0; l < codec.NumLevels; l++ {
			c := cells[min(i*codec.NumLevels+l, len(cells)-1)]
			tiles[i].RefPSPNR[l], tiles[i].LUT[l] = c.ref, c.fit
			tiles[i].Bits[l] = float64(1000 * (codec.NumLevels - l))
		}
	}
	return &manifest.Video{W: 10, H: 10, ChunkSec: 1, Chunks: []manifest.Chunk{{Tiles: tiles}}}
}

// Every cell of a table-read row is within rowBoundDB of the exact cell
// and zero exactly where the exact one is, over a sweep of reference
// PSPNR, fit coefficients and action ratio that covers flat fits
// (b = 0), A ≤ 1, estimates on both sides of the 100 dB cap down to an
// ulp, fits outside expTab's domain (b < 0, b·ln A ≥ 2.5), and the
// planner's Traditional setting.
func TestCostRowsWithinBoundOfExact(t *testing.T) {
	ratios := []float64{0.5, 1, 1 + 1e-9, 1.05, 1.3, 2, 3.7, 9, 38, 400}
	coeffs := []float64{0.6, 0.93, 1, 1.08, 1.6}
	exps := []float64{-0.2, 0, 1e-6, 0.03, 0.11, 0.3, 0.68, 0.9, 1.5}
	refs := []float64{1e-3, 7, 23.4, 38, 51.7, 64, 77.7, 90, 99.999, 100}
	// Relative offsets of the estimate from the cap.
	capOffsets := []float64{-1e-3, -2e-5, -1e-5, -1e-6, -1e-9, -2e-16, 0, 2e-16, 1e-9, 1e-6, 1e-5, 2e-5, 1e-3}

	planners := []*PanoPlanner{{}, {Traditional: true}}
	var worst float64
	total, zeros, tabled := 0, 0, 0
	for _, a := range ratios {
		for _, p := range planners {
			prof, view := ratioProfile(a)
			p.Profile = prof
			// The ratio CostRows will use, for placing estimates at the cap.
			ratio := 1.0
			if !p.Traditional {
				ratio = 1 + (a - 1)
			}
			var cells []lutCell
			for _, c := range coeffs {
				for _, b := range exps {
					fit := manifest.PowerLUT{ACoeff: c, BExp: b}
					for _, ref := range refs {
						cells = append(cells, lutCell{ref, fit})
					}
					atCap := quality.PSPNRCap / fit.PSPNR(1, ratio)
					for _, off := range capOffsets {
						cells = append(cells, lutCell{atCap * (1 + off), fit})
					}
				}
			}
			m := lutManifest(cells)
			got := p.CostRows(nil, m, 0, view)
			want := exactCostRows(p, m, 0, view)
			for i := range want {
				if got[i].Bits != want[i].Bits {
					t.Fatalf("A=%v tile %d: bits %v, want %v", a, i, got[i].Bits, want[i].Bits)
				}
				for l := range want[i].Cost {
					g, w := got[i].Cost[l], want[i].Cost[l]
					db, ok := cellErrorDB(g, w)
					if !ok || !(db <= rowBoundDB) {
						c := cells[min(i*codec.NumLevels+l, len(cells)-1)]
						t.Errorf("A=%v trad=%v ref=%v fit=%+v: table %v, exact %v (%.3g dB)",
							a, p.Traditional, c.ref, c.fit, g, w, db)
					}
					worst = math.Max(worst, db)
					total++
					if w == 0 {
						zeros++
					}
					if g != w {
						tabled++
					}
				}
			}
		}
	}
	t.Logf("%d cells (%d zero, %d read from the tables): max |Δ| %.3g dB, bound %g", total, zeros, tabled, worst, rowBoundDB)
	if zeros < total/20 || tabled < total/3 {
		t.Errorf("the sweep does not exercise the cap (%d zero cells) or the tables (%d tabled) enough", zeros, tabled)
	}
}

// The interpolation error the DESIGN.md bound is made of, measured at
// interval midpoints where a chord is furthest from its curve.
func TestTablesWithinTheirChordBounds(t *testing.T) {
	var expErr, pmseErr float64
	for i := 0; i < expNodes; i++ {
		x := (float64(i) + 0.5) / expScale
		expErr = math.Max(expErr, math.Abs((expTab[i]+expTab[i+1])/2/math.Exp(x)-1))
	}
	for i := 0; i < pmseNodes; i++ {
		p := (float64(i) + 0.5) / pmseScale
		pmseErr = math.Max(pmseErr, math.Abs((pmseTab[i]+pmseTab[i+1])/2/(65025*math.Exp(-p*(math.Ln10/10)))-1))
	}
	t.Logf("relative error: expTab %.3g, pmseTab %.3g", expErr, pmseErr)
	if expErr > 1.9e-7 || pmseErr > 4.0e-6 {
		t.Errorf("relative error expTab %.3g (bound 1.9e-7), pmseTab %.3g (bound 4.0e-6)", expErr, pmseErr)
	}
	if expTab[0] != 1 {
		t.Errorf("expTab[0] = %v: A = 1 and flat fits must read exactly 1", expTab[0])
	}
}

// FuzzCostRows checks that the table path is total and falls back to
// the exact value: whatever the manifest's coefficients and the
// planner's ratio (NaN, negative, huge), CostRows neither panics nor
// indexes outside a table; a cell whose fit or estimate lies outside
// the tables' domains is bit-for-bit the exact cell, and every other
// cell is within rowBoundDB of it and zero exactly where it is.
func FuzzCostRows(f *testing.F) {
	f.Add(64.0, 1.0, 0.1, 2.0, false)
	f.Add(100.0, 1.0, 0.0, 1.0, true)
	f.Add(99.9999, 1.0, 1e-7, 1.5, false)
	f.Add(50.0, 1.0, 0.68, 38.0, false)
	f.Add(50.0, 1.0, 2.5, math.E, false)
	f.Add(-30.0, 1.0, 0.2, 2.0, false)
	f.Add(40.0, -1.0, -0.5, 3.0, false)
	f.Add(math.NaN(), 1.0, 0.1, 2.0, false)
	f.Add(40.0, math.Inf(1), 0.1, 2.0, false)
	f.Add(40.0, 1.0, math.NaN(), 2.0, false)
	f.Add(40.0, 1.0, 0.1, math.NaN(), false)
	f.Add(40.0, 1.0, 1e300, 1e300, false)
	f.Add(1e-300, 1e-300, 1e-300, 1+1e-15, false)
	f.Fuzz(func(t *testing.T, ref, coeff, bexp, a float64, traditional bool) {
		prof, view := ratioProfile(a)
		p := &PanoPlanner{Profile: prof, Traditional: traditional}
		// Five estimates per input, spread around the given one.
		fit := manifest.PowerLUT{ACoeff: coeff, BExp: bexp}
		var cells []lutCell
		for l := 0; l < codec.NumLevels; l++ {
			cells = append(cells, lutCell{ref * float64(l+1) / 3, fit})
		}
		m := lutManifest(cells)
		got := p.CostRows(nil, m, 0, view)[0]
		want := exactCostRows(p, m, 0, view)[0]

		ratio := 1.0
		if !traditional {
			ratio = 1 + (a - 1)
		}
		x := bexp * math.Log(math.Max(ratio, 1)) // NaN if either is
		for l, w := range want.Cost {
			g := got.Cost[l]
			v := fit.PSPNR(cells[l].ref, ratio)
			if !(x >= 0 && x < expMax) || !(v >= 0) {
				if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
					t.Errorf("level %d outside the tables (b·lnA %v, estimate %v): %v, exact %v", l, x, v, g, w)
				}
				continue
			}
			if db, ok := cellErrorDB(g, w); !ok || !(db <= rowBoundDB) {
				t.Errorf("level %d (b·lnA %v, estimate %v): table %v, exact %v (%.3g dB)", l, x, v, g, w, db)
			}
		}
	})
}

var (
	benchFixtureOnce sync.Once
	benchFixtureMan  *manifest.Video
	benchFixtureTrs  []*viewport.Trace
)

// benchFixture is the benchmark's content (benchmark/input.go): the
// 480×240 Sports clip, 8 chunks × 30 tiles, its 8 viewers, the first 4
// of them the provider's history.
func benchFixture(tb testing.TB) (*manifest.Video, []*viewport.Trace) {
	tb.Helper()
	benchFixtureOnce.Do(func() {
		v := scene.Generate(scene.Sports, 2019, scene.Options{W: 480, H: 240, FPS: 30, DurationSec: 8})
		for u := uint64(0); u < 8; u++ {
			benchFixtureTrs = append(benchFixtureTrs, viewport.Synthesize(v, 2019+u, viewport.DefaultSynthesizeOpts()))
		}
		m, err := provider.Preprocess(v, benchFixtureTrs[:4], provider.DefaultConfig())
		if err != nil {
			panic(err)
		}
		benchFixtureMan = m
	})
	return benchFixtureMan, benchFixtureTrs
}

// What the bound buys: over the benchmark's manifest, its 8 viewers and
// a ladder of budgets from the all-lowest to the all-highest size, the
// rows are within rowBoundDB of the exact ones and Plan returns the
// levels the exact rows give. A 1e-5 relative change of a cost can only
// flip the allocator's choice between two plans that close, so an
// exception is tolerated when, under the exact rows, its plan costs
// within 1e-4 of the exact plan's (it is logged with that Δcost), and
// they must stay exceptions.
func TestPlanMatchesExactRows(t *testing.T) {
	m, trs := benchFixture(t)
	est := NewEstimator()
	const rungs = 16
	calls, exceptions := 0, 0
	p := NewPanoPlanner()
	for u, tr := range trs {
		for k := 0; k < m.NumChunks(); k++ {
			view := est.View(m, tr, k, float64(k)*m.ChunkSec)
			exact := exactCostRows(p, m, k, view)
			// The rows too: the sweep's profile is flat in DoF and
			// luminance, this one is the real Equation 4.
			for i, row := range p.CostRows(nil, m, k, view) {
				for l, g := range row.Cost {
					if db, ok := cellErrorDB(g, exact[i].Cost[l]); !ok || !(db <= rowBoundDB) {
						t.Fatalf("viewer %d chunk %d tile %d level %d: table %v, exact %v (%.3g dB)", u, k, i, l, g, exact[i].Cost[l], db)
					}
				}
			}
			lo, hi := m.ChunkBits(k, codec.Level(codec.NumLevels-1)), m.ChunkBits(k, 0)
			for r := 0; r <= rungs; r++ {
				budget := lo * math.Pow(hi/lo, float64(r)/rungs)
				got := p.Plan(m, k, view, budget)
				want := abr.AllocatePruned(exact, budget, 0)
				calls++
				if slices.Equal(got, want) {
					continue
				}
				exceptions++
				gc, wc := abr.TotalCost(exact, got), abr.TotalCost(exact, want)
				t.Logf("viewer %d chunk %d budget %.0f: plan %v, exact rows give %v; Δcost %+.3g relative",
					u, k, budget, got, want, gc/wc-1)
				if math.Abs(gc/wc-1) > 1e-4 || abr.TotalBits(exact, got) > budget {
					t.Errorf("viewer %d chunk %d budget %.0f: plan differs from the exact rows' by more than a tie", u, k, budget)
				}
			}
		}
	}
	t.Logf("%d of %d plans differ from the exact rows' plan", exceptions, calls)
	if exceptions*200 > calls {
		t.Errorf("%d of %d plans differ from the exact rows' plan; want under 0.5 %%", exceptions, calls)
	}
}

var (
	sinkRows []abr.TileChoice
	sinkPlan abr.Allocation
)

// BenchmarkCostRows times the planner's input for one chunk of the
// benchmark's 30-tile manifest, cycling over its chunks and viewers:
// exact is the Pow-and-Exp definition, table what Plan runs. settled is
// a whole Plan at the chunk's all-lowest budget, which affords no
// upgrade — a starved session's every chunk — answered by the chunk's
// floor from the manifest's table, with costs built only at the tied
// levels of tiles tied at their smallest size and the table does not
// settle: what such a chunk pays where it paid table and more. plan is a
// whole Plan at each uniform level's size in turn, the all-lowest one
// settled and the others searched.
func BenchmarkCostRows(b *testing.B) {
	m, trs := benchFixture(b)
	est := NewEstimator()
	type call struct {
		k    int
		view ChunkView
	}
	var calls []call
	for _, tr := range trs {
		for k := 0; k < m.NumChunks(); k++ {
			calls = append(calls, call{k, est.View(m, tr, k, float64(k)*m.ChunkSec)})
		}
	}
	p := NewPanoPlanner()
	b.Run("exact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := &calls[i%len(calls)]
			sinkRows = exactCostRows(p, m, c.k, c.view)
		}
	})
	b.Run("table", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := &calls[i%len(calls)]
			sinkRows = p.CostRows(sinkRows, m, c.k, c.view)
		}
	})
	b.Run("settled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := &calls[i%len(calls)]
			sinkPlan = p.Plan(m, c.k, c.view, m.ChunkBits(c.k, codec.Level(codec.NumLevels-1)))
		}
	})
	b.Run("plan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := &calls[i%len(calls)]
			sinkPlan = p.Plan(m, c.k, c.view, m.ChunkBits(c.k, codec.Level(i/len(calls)%codec.NumLevels)))
		}
	})
}
