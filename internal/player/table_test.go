package player

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"weak"

	"pano/internal/abr"
	"pano/internal/codec"
	"pano/internal/geom"
	"pano/internal/manifest"
	"pano/internal/viewport"
)

// rescaled is a deep copy of m with the same chunk count and tiling and
// other facts behind every row: each tile's sizes scaled by a factor of
// its own and its reference PSPNR lowered, and every third tile's two
// lowest levels made one size with different PSPNRs, so a tie the table
// must leave to the costs.
func rescaled(m *manifest.Video) *manifest.Video {
	c := *m
	c.Chunks = slices.Clone(m.Chunks)
	for k := range c.Chunks {
		tiles := slices.Clone(c.Chunks[k].Tiles)
		for i := range tiles {
			t := &tiles[i]
			for l := range t.Bits {
				t.Bits[l] *= 1.2 + 0.1*float64(i%4)
				t.RefPSPNR[l] *= 0.9
			}
			if i%3 == 0 {
				t.Bits[codec.NumLevels-2] = t.Bits[codec.NumLevels-1]
				t.RefPSPNR[codec.NumLevels-2] = t.RefPSPNR[codec.NumLevels-1] + 1
			}
		}
		c.Chunks[k].Tiles = tiles
	}
	return &c
}

// checkHorizon fails unless every horizon window of m, at depth 3, is
// the rows horizonRow computes afresh, capped at its length.
func checkHorizon(t *testing.T, name string, m *manifest.Video) {
	t.Helper()
	const depth = 3
	n := m.NumChunks()
	for k := 0; k < n; k++ {
		got := Horizon(m, k, min(k+depth, n))
		if len(got) != min(depth, n-k) || cap(got) != len(got) {
			t.Fatalf("%s: window at %d has %d rows, capacity %d", name, k, len(got), cap(got))
		}
		for i, row := range got {
			if want := horizonRow(m, k+i); row != want {
				t.Fatalf("%s chunk %d: table %+v, fresh %+v", name, k+i, row, want)
			}
		}
	}
}

// The controller's rows are the manifest's own sums, chunk by chunk, for
// every manifest a session reads in turn: the whole video, a live
// manifest's first two chunks (a new Video), a copy whose every row
// differs, and the whole video again.
func TestHorizonMatchesFresh(t *testing.T) {
	full, _ := benchFixture(t)
	prefix := *full
	prefix.Chunks = full.Chunks[:2]
	for i, m := range []*manifest.Video{full, &prefix, rescaled(full), full} {
		checkHorizon(t, []string{"full", "prefix", "rescaled", "full again"}[i], m)
	}
	for k := 0; k < full.NumChunks(); k++ {
		row := Horizon(full, k, k+1)[0]
		for l := 0; l < codec.NumLevels; l++ {
			if row.Bits[l] != full.ChunkBits(k, codec.Level(l)) || row.Quality[l] != MeanRefPSPNR(full, k, codec.Level(l))/10 {
				t.Fatalf("chunk %d level %d: row %+v", k, l, row)
			}
		}
	}
}

// planCase is one Plan call and the plan the whole rows give it.
type planCase struct {
	m      *manifest.Video
	k      int
	view   ChunkView
	budget float64
	want   abr.Allocation
}

// planCases are Plan's calls on m, its viewers' views at every chunk and
// the low-end budgets and a ladder above them, each with
// AllocatePruned(CostRows).
func planCases(p *PanoPlanner, m *manifest.Video, trs []*viewport.Trace) []planCase {
	est := NewEstimator()
	var out []planCase
	var rows []abr.TileChoice
	for _, tr := range trs {
		for k := 0; k < m.NumChunks(); k++ {
			view := est.View(m, tr, k, float64(k)*m.ChunkSec)
			for _, budget := range starvedBudgets(m, k) {
				rows = p.CostRows(rows, m, k, view)
				out = append(out, planCase{m, k, view, budget, abr.AllocatePruned(rows, budget, 0)})
			}
		}
	}
	return out
}

// Two manifests of the same chunk count — the benchmark's and a rescaled
// copy — planned interleaved through one shared planner from several
// goroutines, each reading both manifests' horizons as it goes: every
// plan is AllocatePruned over CostRows and every window the fresh rows.
// A table keyed by chunk count alone hands one manifest the other's
// floors and rows. Run under -race (make race).
func TestTableInterleavedManifests(t *testing.T) {
	full, trs := benchFixture(t)
	other := rescaled(full)
	p := NewPanoPlanner()
	cases := planCases(p, full, trs[:4])
	more := planCases(p, other, trs[:4])
	mixed := make([]planCase, 0, len(cases)+len(more))
	for i := range cases {
		mixed = append(mixed, cases[i], more[i])
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < len(mixed); j += workers {
				c := &mixed[j]
				if got := p.Plan(c.m, c.k, c.view, c.budget); !slices.Equal(got, c.want) {
					errs <- "interleaved plan differs from AllocatePruned over CostRows"
					return
				}
				hi := min(c.k+3, c.m.NumChunks())
				for i, row := range Horizon(c.m, c.k, hi) {
					if row != horizonRow(c.m, c.k+i) {
						errs <- "interleaved horizon differs from the fresh rows"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	exits := 0
	for _, c := range mixed {
		if abr.Starved(p.CostRows(nil, c.m, c.k, c.view), c.budget, nil) != nil {
			exits++
		}
	}
	t.Logf("%d interleaved plans, %d answered by the exit", len(mixed), exits)
	if exits == 0 {
		t.Error("no plan reached the exit")
	}
}

// A live manifest grown in place by one chunk between calls: the plans
// and windows of the longer manifest, its new chunk included, are the
// fresh ones. A table keyed by the Video alone has no row for the new
// chunk, or a stale one.
func TestTableFollowsAGrowingManifest(t *testing.T) {
	full, trs := benchFixture(t)
	p := NewPanoPlanner()
	grown := *full
	for n := 1; n <= full.NumChunks(); n++ {
		grown.Chunks = full.Chunks[:n]
		for _, c := range planCases(p, &grown, trs[:2]) {
			if got := p.Plan(c.m, c.k, c.view, c.budget); !slices.Equal(got, c.want) {
				t.Fatalf("%d chunks, chunk %d budget %.0f: Plan %v, AllocatePruned over CostRows %v", n, c.k, c.budget, got, c.want)
			}
		}
		checkHorizon(t, "grown", &grown)
	}
}

// tiedManifest is a one-chunk manifest of two 10×10 tiles whose three
// lowest levels are one size: the first holds cell at every level (a
// flat tie where the cell is finite), the second the same but with a
// distinct reference PSPNR at its lowest level (a tie the costs decide).
func tiedManifest(ref float64, fit manifest.PowerLUT) *manifest.Video {
	tiles := make([]manifest.Tile, 2)
	for i := range tiles {
		tiles[i].Rect = geom.Rect{X0: 10 * i, X1: 10 * (i + 1), Y1: 10}
		for l := 0; l < codec.NumLevels; l++ {
			tiles[i].RefPSPNR[l], tiles[i].LUT[l] = ref, fit
			tiles[i].Bits[l] = float64(1000 * max(codec.NumLevels-l, 3))
		}
	}
	tiles[1].RefPSPNR[codec.NumLevels-1] = ref / 2
	return &manifest.Video{W: 20, H: 10, ChunkSec: 1, Chunks: []manifest.Chunk{{Tiles: tiles}}}
}

// Plan's exit answers a tied tile without its costs only where the costs
// could not say otherwise (flatLevel). Over reference PSPNRs, fit
// coefficients and action ratios that make the estimate zero, capped,
// infinite or NaN — NaN and infinite cells, a zero reference under a
// huge exponent, ratios of NaN, ±Inf and below 1, the traditional
// ablation — at the budget under the all-smallest size, at it, and one
// that searches, Plan is AllocatePruned over CostRows.
func TestTiedExitMatchesRows(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	refs := []float64{0, 1e-300, 40, 100, -30, nan, inf}
	coeffs := []float64{1, 1e-300, 1e300, -1, inf, nan}
	bexps := []float64{0, 0.1, -0.5, 1e300, -1e300, inf, nan}
	ratios := []float64{1, 2, 0.5, 1e300, inf, -inf, nan}
	flat, cases := 0, 0
	for _, ref := range refs {
		for _, coeff := range coeffs {
			for _, bexp := range bexps {
				m := tiedManifest(ref, manifest.PowerLUT{ACoeff: coeff, BExp: bexp})
				s := abr.NewFloor(bitsOnly(m.Chunks[0].Tiles)).Small[0]
				if flatLevel(&m.Chunks[0].Tiles[0], s) >= 0 {
					flat++
				}
				for _, a := range ratios {
					prof, view := ratioProfile(a)
					for _, trad := range []bool{false, true} {
						p := &PanoPlanner{Profile: prof, Traditional: trad}
						rows := p.CostRows(nil, m, 0, view)
						for _, budget := range []float64{5999, 6000, 8500} {
							cases++
							want := abr.AllocatePruned(rows, budget, 0)
							if got := p.Plan(m, 0, view, budget); !slices.Equal(got, want) {
								t.Fatalf("ref %v fit (%v, %v) ratio %v traditional %v budget %v: Plan %v, AllocatePruned over CostRows %v (costs %v)",
									ref, coeff, bexp, a, trad, budget, got, want, rows[0].Cost)
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d cases over %d cells, %d of them flat ties", cases, len(refs)*len(coeffs)*len(bexps), flat)
	if flat == 0 {
		t.Error("no cell makes a flat tie")
	}
}

// bitsOnly is tiles' rows with their bits only.
func bitsOnly(tiles []manifest.Tile) []abr.TileChoice {
	rows := make([]abr.TileChoice, len(tiles))
	for i := range tiles {
		rows[i].Bits = tiles[i].Bits
	}
	return rows
}

// A manifest's table goes when the manifest does: once a planned copy is
// dropped, a collection runs the cleanup that deletes its entry.
func TestTableGoesWithItsManifest(t *testing.T) {
	full, trs := benchFixture(t)
	p := NewPanoPlanner()
	view := NewEstimator().View(full, trs[0], 0, 0)
	dropped := *full
	p.Plan(&dropped, 0, view, full.ChunkBits(0, 2))
	key := weak.Make(&dropped)
	if _, ok := tables.Load(key); !ok {
		t.Fatal("a planned manifest has no table")
	}
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		runtime.GC()
		if _, ok := tables.Load(key); !ok {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Error("the dropped manifest's table is still held")
}
