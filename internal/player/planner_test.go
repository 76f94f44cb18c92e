package player

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"pano/internal/abr"
	"pano/internal/codec"
	"pano/internal/jnd"
	"pano/internal/manifest"
	"pano/internal/provider"
	"pano/internal/scene"
	"pano/internal/viewport"
)

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

func TestPlannerNames(t *testing.T) {
	if NewPanoPlanner().Name() != "pano" {
		t.Error("pano planner name")
	}
	trad := NewPanoPlanner()
	trad.Traditional = true
	if trad.Name() != "pano-traditional-jnd" {
		t.Error("traditional planner name")
	}
	if NewViewportPlanner("flare").Name() != "flare" {
		t.Error("viewport planner name")
	}
	if (WholePlanner{}).Name() != "whole-video" {
		t.Error("whole planner name")
	}
}

func TestTraditionalAblationIgnoresMotion(t *testing.T) {
	// With Traditional set, the plan must be identical whether the
	// viewpoint is static or fast-moving (same center), because the
	// action ratio is forced to 1.
	m, tr := fixture(t)
	est := NewEstimator()
	slow := est.View(m, tr, 1, 0.5)
	slow.SpeedLB = 0
	fast := slow
	fast.SpeedLB = 25

	trad := NewPanoPlanner()
	trad.Traditional = true
	budget := m.ChunkBits(1, codec.Level(2))
	a := trad.Plan(m, 1, slow, budget)
	b := trad.Plan(m, 1, fast, budget)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("traditional planner should ignore viewpoint speed")
		}
	}
	// The full planner must react to the speed change.
	full := NewPanoPlanner()
	c := full.Plan(m, 1, slow, budget)
	d := full.Plan(m, 1, fast, budget)
	same := true
	for i := range c {
		if c[i] != d[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("full planner should react to viewpoint speed")
	}
}

func TestPanoPlannerNilProfileDefaults(t *testing.T) {
	m, tr := fixture(t)
	est := NewEstimator()
	view := est.View(m, tr, 0, 0)
	pl := &PanoPlanner{} // nil Profile: the default applies
	alloc := pl.Plan(m, 0, view, m.ChunkBits(0, codec.Level(2)))
	if len(alloc) != len(m.Chunks[0].Tiles) {
		t.Fatal("nil-profile planner should still allocate")
	}
}

func TestViewportPSPNRNilProfileIsTraditional(t *testing.T) {
	m, tr := fixture(t)
	est := NewEstimator()
	actual := est.ActualView(m, tr, 1)
	actual.SpeedLB = 20 // strong motion
	n := len(m.Chunks[1].Tiles)
	alloc := make([]codec.Level, n)
	for i := range alloc {
		alloc[i] = codec.Level(codec.NumLevels - 1)
	}
	with := ViewportPSPNR(m, 1, alloc, actual, jnd.Default())
	without := ViewportPSPNR(m, 1, alloc, actual, nil)
	if with < without {
		t.Errorf("360JND PSPNR %v should be >= traditional %v under motion", with, without)
	}
}

func TestFramePSPNRProperties(t *testing.T) {
	m, tr := fixture(t)
	est := NewEstimator()
	actual := est.ActualView(m, tr, 1)
	n := len(m.Chunks[1].Tiles)
	best := make([]codec.Level, n)
	worst := make([]codec.Level, n)
	for i := range worst {
		worst[i] = codec.Level(codec.NumLevels - 1)
	}
	prof := jnd.Default()
	pb := FramePSPNR(m, 1, best, actual, prof)
	pw := FramePSPNR(m, 1, worst, actual, prof)
	if pb <= pw {
		t.Errorf("best-levels frame PSPNR %v should exceed worst %v", pb, pw)
	}
	// 360JND never scores below the traditional content-only PSPNR.
	actual.SpeedLB = 15
	with := FramePSPNR(m, 1, worst, actual, prof)
	without := FramePSPNR(m, 1, worst, actual, nil)
	if with < without {
		t.Errorf("360JND frame PSPNR %v below traditional %v", with, without)
	}
	// PSNR ordering too.
	if FramePSNR(m, 1, best) <= FramePSNR(m, 1, worst) {
		t.Error("frame PSNR should improve with better levels")
	}
}

func TestBestGuessViewUsesCurrentSpeed(t *testing.T) {
	m, tr := fixture(t)
	est := NewEstimator()
	now := 2.0
	view := est.View(m, tr, 3, now)
	guess := view.BestGuess(tr, now)
	if got, want := guess.SpeedLB, tr.SpeedAt(now); got != want {
		t.Errorf("best guess speed = %v, want current %v", got, want)
	}
	if guess.Center != view.Center || guess.LumaChange != view.LumaChange || guess.FocusDoF != view.FocusDoF {
		t.Errorf("best guess %+v moved more than the speed of %+v", guess, view)
	}
	// The conservative view never exceeds the best guess.
	if view.SpeedLB > guess.SpeedLB+1e-9 {
		t.Errorf("lower bound %v exceeds best guess %v", view.SpeedLB, guess.SpeedLB)
	}
}

// One planner value serves every concurrent session (the swarm hands
// the same Planner to all its workers), and Plan draws its cost rows
// and the allocator's frontier slab from shared pools: concurrent calls
// must return exactly the serial answers. Run under -race (make race).
func TestPanoPlannerSharedAcrossGoroutines(t *testing.T) {
	m, tr := fixture(t)
	est := NewEstimator()
	pl := NewPanoPlanner()
	const workers, calls = 8, 50
	type job struct {
		k      int
		view   ChunkView
		budget float64
	}
	jobs := make([]job, workers*calls)
	want := make([]abr.Allocation, len(jobs))
	for j := range jobs {
		k := j % m.NumChunks()
		l := codec.Level(j / m.NumChunks() % codec.NumLevels)
		jobs[j] = job{
			k:      k,
			view:   est.View(m, tr, k, 0.1*float64(j%40)),
			budget: m.ChunkBits(k, l) * (0.8 + 0.01*float64(j%50)),
		}
		want[j] = pl.Plan(m, jobs[j].k, jobs[j].view, jobs[j].budget)
	}
	got := make([]abr.Allocation, len(jobs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Strided, so neighbouring goroutines work on different
			// chunks and budgets at the same moment.
			for j := w; j < len(jobs); j += workers {
				got[j] = pl.Plan(m, jobs[j].k, jobs[j].view, jobs[j].budget)
			}
		}(w)
	}
	wg.Wait()
	distinct := map[string]bool{}
	for j := range jobs {
		if !slices.Equal(got[j], want[j]) {
			t.Fatalf("job %d (chunk %d, budget %.0f): concurrent plan %v, serial %v", j, jobs[j].k, jobs[j].budget, got[j], want[j])
		}
		distinct[fmt.Sprint(want[j])] = true
	}
	if len(distinct) < 10 {
		t.Errorf("only %d distinct plans over %d jobs; the workload does not vary", len(distinct), len(jobs))
	}
}

// Warm, Plan allocates the plan it returns and nothing else: the cost
// rows, the search's frontiers and its LP tables all come from pools, and
// the budgets at the low end — under the all-lowest size, at it, and
// short of the cheapest step up — are answered by abr.Starved, the costs
// its ties need built on demand. The figure is the one the unbounded
// search and the inline row loop had. sync.Pool drops items at random
// under the race detector, so the pin is skipped there;
// TestPanoPlannerSharedAcrossGoroutines is what runs under -race.
func TestPanoPlannerPlanAllocatesOnlyThePlan(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	m, tr := fixture(t)
	est := NewEstimator()
	pl := NewPanoPlanner()
	exits := 0
	for k := 0; k < m.NumChunks(); k++ {
		view := est.View(m, tr, k, float64(k)*m.ChunkSec)
		budgets := starvedBudgets(m, k)[:3]
		for l := 0; l < codec.NumLevels; l++ {
			budgets = append(budgets, m.ChunkBits(k, codec.Level(l)))
		}
		rows := pl.CostRows(nil, m, k, view)
		for _, budget := range budgets {
			if abr.Starved(rows, budget, nil) != nil {
				exits++
			}
			pl.Plan(m, k, view, budget) // warm both pools
			if allocs := testing.AllocsPerRun(20, func() { pl.Plan(m, k, view, budget) }); allocs != 1 {
				t.Errorf("chunk %d at budget %.0f: %v allocs per Plan, want 1", k, budget, allocs)
			}
		}
	}
	if exits < 3*m.NumChunks() {
		t.Errorf("%d plans answered by the exit, want at least the %d low-end budgets", exits, 3*m.NumChunks())
	}
}

// swarmFixture is internal/swarm's test population: its manifest and
// the four viewers it was tiled with.
func swarmFixture(t testing.TB) (*manifest.Video, []*viewport.Trace) {
	t.Helper()
	swarmFixtureOnce.Do(func() {
		v := scene.Generate(scene.Sports, 23, scene.Options{W: 240, H: 120, FPS: 10, DurationSec: 8})
		for i := uint64(1); i <= 4; i++ {
			swarmFixtureTrs = append(swarmFixtureTrs, viewport.Synthesize(v, i, viewport.DefaultSynthesizeOpts()))
		}
		m, err := provider.Preprocess(v, swarmFixtureTrs, provider.DefaultConfig())
		if err != nil {
			panic(err)
		}
		swarmFixtureMan = m
	})
	return swarmFixtureMan, swarmFixtureTrs
}

var (
	swarmFixtureOnce sync.Once
	swarmFixtureMan  *manifest.Video
	swarmFixtureTrs  []*viewport.Trace
)

// starvedBudgets are chunk k's budgets at the low end — an ulp under the
// all-lowest size, at it, and halfway to its cheapest step up — and a
// ladder of seven from there to the all-highest size.
func starvedBudgets(m *manifest.Video, k int) []float64 {
	lo, hi := m.ChunkBits(k, codec.Level(codec.NumLevels-1)), m.ChunkBits(k, 0)
	minUp := math.Inf(1)
	for _, t := range m.Chunks[k].Tiles {
		small := slices.Min(t.Bits[:])
		for _, b := range t.Bits {
			if d := b - small; d > 0 {
				minUp = min(minUp, d)
			}
		}
	}
	out := []float64{math.Nextafter(lo, 0), lo, lo + minUp/2}
	for r := 1; r <= 7; r++ {
		out = append(out, lo*math.Pow(hi/lo, float64(r)/7))
	}
	return out
}

// Plan is AllocatePruned over CostRows, exit or not. On the benchmark's
// manifest with its eight viewers (vod_session's) and on the swarm
// tests' population, at every chunk and the low-end budgets and a ladder
// above them, the plan Plan returns — answered by abr.Starved before any
// cost is built where no upgrade fits — is the one the whole rows give.
// Both manifests tie tiles at their smallest size, so the exit builds
// some costs on demand.
func TestPlanIsCostRowsAndAllocatePruned(t *testing.T) {
	for _, fx := range []struct {
		name string
		load func(testing.TB) (*manifest.Video, []*viewport.Trace)
	}{{"vod", benchFixture}, {"swarm", swarmFixture}} {
		m, trs := fx.load(t)
		p, est := NewPanoPlanner(), NewEstimator()
		var rows []abr.TileChoice
		calls, exits, tied := 0, 0, 0
		for _, tr := range trs {
			for k := 0; k < m.NumChunks(); k++ {
				view := est.View(m, tr, k, float64(k)*m.ChunkSec)
				for _, budget := range starvedBudgets(m, k) {
					rows = p.CostRows(rows, m, k, view)
					want := abr.AllocatePruned(rows, budget, 0)
					if got := p.Plan(m, k, view, budget); !slices.Equal(got, want) {
						t.Fatalf("%s chunk %d budget %.0f: Plan %v, AllocatePruned over CostRows %v", fx.name, k, budget, got, want)
					}
					calls++
					if abr.Starved(rows, budget, nil) != nil {
						exits++
					}
				}
			}
		}
		for _, c := range m.Chunks {
			for _, tl := range c.Tiles {
				small, n := slices.Min(tl.Bits[:]), 0
				for _, b := range tl.Bits {
					if b == small {
						n++
					}
				}
				if n > 1 {
					tied++
				}
			}
		}
		t.Logf("%s: %d of %d plans answered by the exit; %d tiles tie at their smallest size", fx.name, exits, calls, tied)
		if exits == 0 || tied == 0 {
			t.Errorf("%s: the exit never answered, or no tile ties at its smallest size", fx.name)
		}
	}
}
