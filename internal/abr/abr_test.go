package abr

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"pano/internal/codec"
	"pano/internal/manifest"
	"pano/internal/mathx"
	"pano/internal/provider"
	"pano/internal/scene"
	"pano/internal/viewport"
)

// randomTiles builds a plausible tile menu: bits decrease and cost
// increases as the level index grows.
func randomTiles(rng *mathx.RNG, n int) []TileChoice {
	tiles := make([]TileChoice, n)
	for i := range tiles {
		base := rng.Range(1e4, 2e5)
		cost := rng.Range(1, 30)
		for l := 0; l < codec.NumLevels; l++ {
			tiles[i].Bits[l] = base / math.Pow(1.8, float64(l))
			tiles[i].Cost[l] = cost * math.Pow(2.2, float64(l))
		}
		tiles[i].Cost[0] = 0 // top level: no perceptible distortion
	}
	return tiles
}

func TestGreedyRespectsBudget(t *testing.T) {
	rng := mathx.NewRNG(1)
	for trial := 0; trial < 20; trial++ {
		tiles := randomTiles(rng, 30)
		low := TotalBits(tiles, lowestLevels(30))
		budget := low * rng.Range(1.0, 6.0)
		a := AllocateGreedy(tiles, budget)
		if got := TotalBits(tiles, a); got > budget+1e-6 {
			t.Fatalf("trial %d: bits %v over budget %v", trial, got, budget)
		}
	}
}

func TestGreedyUsesSpareBudget(t *testing.T) {
	rng := mathx.NewRNG(2)
	tiles := randomTiles(rng, 10)
	top := TotalBits(tiles, make(Allocation, 10)) // all level 0
	a := AllocateGreedy(tiles, top*2)
	for i, l := range a {
		if l != 0 {
			t.Errorf("tile %d at level %v with unlimited budget", i, l)
		}
	}
}

func TestGreedyTightBudgetIsAllLowest(t *testing.T) {
	rng := mathx.NewRNG(3)
	tiles := randomTiles(rng, 10)
	a := AllocateGreedy(tiles, 1) // impossible budget
	for _, l := range a {
		if l != codec.Level(codec.NumLevels-1) {
			t.Error("under impossible budget all tiles should be lowest")
		}
	}
}

// TestGreedyLandsOnAUniformLevelBudget: a budget that is a uniform
// level's size to the bit (Video.ChunkBits, what the viewport-driven
// baselines' controller hands over) buys that level on every tile. The
// tiles' upgrade ratios rise with the level index alike, so the greedy
// walks the tiles up one level at a time; sizes off the binary32 grid
// make the running sum of its steps round away from the sum it lands on.
func TestGreedyLandsOnAUniformLevelBudget(t *testing.T) {
	rng := mathx.NewRNG(7)
	for trial := 0; trial < 50; trial++ {
		n := 10 + rng.Intn(63)
		tiles := make([]TileChoice, n)
		for i := range tiles {
			base := rng.Range(1e4, 2e5)
			for l := 0; l < codec.NumLevels; l++ {
				tiles[i].Bits[l] = base / math.Pow(1.8, float64(l))
				tiles[i].Cost[l] = base * math.Pow(2.2, float64(l))
			}
		}
		for l := 0; l < codec.NumLevels; l++ {
			want := make(Allocation, n)
			for i := range want {
				want[i] = codec.Level(l)
			}
			budget := TotalBits(tiles, want)
			got := AllocateGreedy(tiles, budget)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d, %d tiles: budget of uniform level %d bought %v", trial, n, l, got)
			}
		}
	}
}

func TestPrunedMatchesExhaustive(t *testing.T) {
	rng := mathx.NewRNG(4)
	for trial := 0; trial < 15; trial++ {
		tiles := randomTiles(rng, 6)
		low := TotalBits(tiles, lowestLevels(6))
		budget := low * rng.Range(1.2, 4.0)
		want, err := AllocateExhaustive(tiles, budget)
		if err != nil {
			t.Fatal(err)
		}
		got := AllocatePruned(tiles, budget, 0)
		wc, gc := TotalCost(tiles, want), TotalCost(tiles, got)
		if TotalBits(tiles, got) > budget+1e-6 {
			t.Fatalf("trial %d: pruned over budget", trial)
		}
		if gc > wc*1.0001+1e-9 {
			t.Errorf("trial %d: pruned cost %v > exhaustive %v", trial, gc, wc)
		}
	}
}

func TestGreedyNearOptimal(t *testing.T) {
	rng := mathx.NewRNG(5)
	var worst float64 = 1
	for trial := 0; trial < 15; trial++ {
		tiles := randomTiles(rng, 7)
		low := TotalBits(tiles, lowestLevels(7))
		budget := low * rng.Range(1.5, 3.0)
		opt, err := AllocateExhaustive(tiles, budget)
		if err != nil {
			t.Fatal(err)
		}
		g := AllocateGreedy(tiles, budget)
		oc, gc := TotalCost(tiles, opt), TotalCost(tiles, g)
		if oc > 0 {
			if r := gc / oc; r > worst {
				worst = r
			}
		}
	}
	if worst > 1.6 {
		t.Errorf("greedy worst-case ratio %v vs optimal, want < 1.6", worst)
	}
}

func TestPrunedRespectsBudgetLargeInstance(t *testing.T) {
	rng := mathx.NewRNG(6)
	tiles := randomTiles(rng, 60)
	low := TotalBits(tiles, lowestLevels(60))
	budget := low * 2.5
	a := AllocatePruned(tiles, budget, 0)
	if TotalBits(tiles, a) > budget+1e-6 {
		t.Fatal("over budget")
	}
	// Must beat or match greedy (it is closer to exact).
	g := AllocateGreedy(tiles, budget)
	if TotalCost(tiles, a) > TotalCost(tiles, g)*1.05+1e-9 {
		t.Errorf("pruned cost %v worse than greedy %v", TotalCost(tiles, a), TotalCost(tiles, g))
	}
}

func TestPrunedPropertyNeverOverBudget(t *testing.T) {
	f := func(seed uint64) bool {
		rng := mathx.NewRNG(seed)
		n := 2 + rng.Intn(20)
		tiles := randomTiles(rng, n)
		low := TotalBits(tiles, lowestLevels(n))
		budget := low * rng.Range(0.5, 5)
		a := AllocatePruned(tiles, budget, 256)
		if len(a) != n {
			return false
		}
		// Below the all-lowest size nothing fits: the fallback is
		// all-lowest, which may exceed the budget by necessity.
		if budget >= low {
			return TotalBits(tiles, a) <= budget+1e-6
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestExhaustiveRejectsLargeN(t *testing.T) {
	tiles := make([]TileChoice, 11)
	if _, err := AllocateExhaustive(tiles, 1e9); err == nil {
		t.Error("want error for n > 10")
	}
}

func TestAllocateEmpty(t *testing.T) {
	if a := AllocatePruned(nil, 100, 0); a != nil {
		t.Error("empty tiles should yield nil allocation")
	}
	if a := AllocateGreedy(nil, 100); len(a) != 0 {
		t.Error("empty greedy should be empty")
	}
}

func TestMPCPrefersHighQualityWithFatPipe(t *testing.T) {
	m := NewMPC(2)
	plans := make([]ChunkPlan, 3)
	for i := range plans {
		for l := 0; l < codec.NumLevels; l++ {
			plans[i].Bits[l] = 1e6 / math.Pow(2, float64(l))
			plans[i].Quality[l] = 80 - 10*float64(l)
		}
	}
	// 100 Mbps: downloads are instant; the controller should max out.
	if got := m.PickLevel(2, 100e6, 1, -1, plans); got != 0 {
		t.Errorf("fat pipe level = %v, want 0", got)
	}
	// 100 kbps: even the lowest level takes ~0.6 s per chunk.
	if got := m.PickLevel(0.5, 100e3, 1, -1, plans); got != codec.Level(codec.NumLevels-1) {
		t.Errorf("starved level = %v, want lowest", got)
	}
}

func TestMPCAvoidsRebuffering(t *testing.T) {
	m := NewMPC(2)
	plans := make([]ChunkPlan, 3)
	for i := range plans {
		for l := 0; l < codec.NumLevels; l++ {
			plans[i].Bits[l] = 4e6 / math.Pow(2, float64(l))
			plans[i].Quality[l] = 80 - 8*float64(l)
		}
	}
	// 2 Mbps with a thin buffer: level 0 (4e6 bits = 2 s download)
	// would stall; the controller must back off.
	got := m.PickLevel(0.8, 2e6, 1, -1, plans)
	if got == 0 {
		t.Error("controller picked a stalling level")
	}
}

func TestMPCSwitchPenaltySmoothes(t *testing.T) {
	m := NewMPC(2)
	m.SwitchPenalty = 100 // draconian
	plans := make([]ChunkPlan, 3)
	for i := range plans {
		for l := 0; l < codec.NumLevels; l++ {
			plans[i].Bits[l] = 1e5
			plans[i].Quality[l] = 80 - float64(l)
		}
	}
	// All levels equal in size; previous level was 3. A huge switch
	// penalty should hold the controller at 3 despite slightly better
	// quality at 0.
	if got := m.PickLevel(2, 10e6, 1, 3, plans); got != 3 {
		t.Errorf("level = %v, want 3 under heavy switch penalty", got)
	}
}

func TestMPCEmptyHorizon(t *testing.T) {
	m := NewMPC(2)
	if got := m.PickLevel(1, 1e6, 1, -1, nil); got != codec.Level(codec.NumLevels-1) {
		t.Errorf("empty horizon level = %v, want lowest", got)
	}
}

func TestBandwidthPredictorHarmonicMean(t *testing.T) {
	p := NewBandwidthPredictor()
	if p.Predict() != 0 {
		t.Error("no history should predict 0")
	}
	p.Observe(1e6)
	p.Observe(4e6)
	// Harmonic mean of 1 and 4 Mbps = 1.6 Mbps.
	if got := p.Predict(); math.Abs(got-1.6e6) > 1 {
		t.Errorf("harmonic mean = %v, want 1.6e6", got)
	}
	// Window slides.
	p.Window = 2
	p.Observe(4e6)
	p.Observe(4e6)
	if got := p.Predict(); math.Abs(got-4e6) > 1 {
		t.Errorf("windowed mean = %v, want 4e6", got)
	}
	// Non-positive observations ignored.
	p.Observe(-5)
	if got := p.Predict(); math.Abs(got-4e6) > 1 {
		t.Error("negative observation should be ignored")
	}
}

// refState, referencePruned and referencePrune are AllocatePruned and
// pruneDominated as they stood before the tile step became a merge and
// before the search was bounded: a fresh candidate slice per tile, sorted
// with sort.Slice, no cut. They are the oracle; the only copy of the old
// algorithm. Four additions: the frontiers are returned, so is the
// number of thinned tile steps, and so is the ambiguous flag — the sort
// is unstable, so where a state the filter keeps has an identical (bits,
// cost) twin, which of the two paths the old code returned was an
// accident of the sort. And the tiles are swept in the search's order
// (referenceSweep), so that the frontiers compare step by step: the i-th
// is over the tiles order[:i+1].
type refState struct {
	bits, cost float64
	parent     int         // index into the previous frontier
	level      codec.Level // level chosen for the current tile
}

type refResult struct {
	levels    Allocation
	frontiers [][]refState
	order     []int32 // the tiles of frontiers[i] are order[:i+1]
	twice     bool    // swept again in tile order
	ambiguous bool
	thinned   int
}

// uncapped is a frontier cap no instance reaches: the reference run with
// it is the exact search.
const uncapped = math.MaxInt32

// sweptRows returns the tiles in the search's sweep order.
func sweptRows(tiles []TileChoice) (rows []TileChoice, order []int32) {
	order = sweepOrder(tiles, nil)
	for _, j := range order {
		rows = append(rows, tiles[j])
	}
	return rows, order
}

// sweepPos returns each tile's position in the search's sweep order.
func sweepPos(tiles []TileChoice) []int {
	pos := make([]int, len(tiles))
	for i, j := range sweepOrder(tiles, nil) {
		pos[j] = i
	}
	return pos
}

// tileOrder is the identity order.
func tileOrder(n int) []int32 {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	return order
}

// referencePruned sweeps as the search does: in sweepOrder's order, final
// states kept to boundSlack over the budget, and again in tile order if
// the cheapest one's plan is over the budget by TotalBits.
func referencePruned(tiles []TileChoice, budget float64, maxFrontier int) refResult {
	r, fits := referenceSweep(tiles, sweepOrder(tiles, nil), budget, boundSlack*budget, maxFrontier)
	if !fits {
		r, _ = referenceSweep(tiles, tileOrder(len(tiles)), budget, 0, maxFrontier)
		r.twice = true
	}
	return r
}

// referenceSweep is one sweep of the reference over the tiles in order,
// states kept to over bits over the budget. It reports whether the plan
// it picked — the cheapest final state within that — fits the budget by
// TotalBits.
func referenceSweep(tiles []TileChoice, order []int32, budget, over float64, maxFrontier int) (r refResult, fits bool) {
	if maxFrontier <= 0 {
		maxFrontier = 1024
	}
	n := len(tiles)
	if n == 0 {
		return r, true
	}
	r.order = order
	r.frontiers = make([][]refState, n)
	cur := []refState{{bits: 0, cost: 0, parent: -1}}
	for i := 0; i < n; i++ {
		row := &tiles[order[i]]
		var next []refState
		for pi, st := range cur {
			for l := 0; l < codec.NumLevels; l++ {
				b := st.bits + row.Bits[l]
				if b > budget+over && l != codec.NumLevels-1 {
					// Over budget: only the lowest level remains viable
					// as a fallback path.
					continue
				}
				next = append(next, refState{
					bits:   b,
					cost:   st.cost + row.Cost[l],
					parent: pi,
					level:  codec.Level(l),
				})
			}
		}
		next = referencePrune(next, maxFrontier, &r)
		r.frontiers[i] = next
		cur = next
	}
	// Pick the best final state within budget; if none fits (budget
	// below even the all-lowest size), fall back to all-lowest.
	bestIdx := -1
	bestCost := math.Inf(1)
	for i, st := range cur {
		if st.bits <= budget+over && st.cost < bestCost {
			bestCost = st.cost
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		r.levels = lowestLevels(n)
		return r, true
	}
	// Reconstruct.
	r.levels = make(Allocation, n)
	idx := bestIdx
	for i := n - 1; i >= 0; i-- {
		st := r.frontiers[i][idx]
		r.levels[order[i]] = st.level
		idx = st.parent
	}
	return r, TotalBits(tiles, r.levels) <= budget
}

func referencePrune(states []refState, cap int, r *refResult) []refState {
	if len(states) == 0 {
		return states
	}
	sort.Slice(states, func(i, j int) bool {
		if states[i].bits != states[j].bits {
			return states[i].bits < states[j].bits
		}
		return states[i].cost < states[j].cost
	})
	out := states[:0]
	bestCost := math.Inf(1)
	for i, st := range states {
		if st.cost < bestCost-1e-12 {
			if i+1 < len(states) && states[i+1].bits == st.bits && states[i+1].cost == st.cost {
				r.ambiguous = true
			}
			out = append(out, st)
			bestCost = st.cost
		}
	}
	if len(out) <= cap {
		return out
	}
	r.thinned++
	lo, hi := out[0].bits, out[len(out)-1].bits
	span := hi - lo
	if span <= 0 {
		return out[:1]
	}
	thinned := out[:0]
	lastBucket := -1
	for _, st := range out {
		b := int(float64(cap-1) * (st.bits - lo) / span)
		if b != lastBucket {
			thinned = append(thinned, st)
			lastBucket = b
		}
	}
	return thinned
}

// frontier returns tile i's frontier of the scratch's last search.
func (sc *prunedScratch) frontier(i int) []paretoState {
	end := len(sc.slab)
	if i+1 < len(sc.starts) {
		end = sc.starts[i+1]
	}
	return sc.slab[sc.starts[i]:end]
}

// notIn returns the index of the first state of f that breaks f being a
// subsequence of ref with bits and cost equal as float64s, or -1.
func notIn(f []paretoState, ref []refState) int {
	j := 0
	for i, st := range f {
		for j < len(ref) && (ref[j].bits != st.bits || ref[j].cost != st.cost) {
			j++
		}
		if j == len(ref) {
			return i
		}
		j++
	}
	return -1
}

// oracleOutcome is what againstReference saw, for the counters that keep
// its comparisons from being vacuous.
type oracleOutcome struct {
	ambiguous           bool // the reference's path was an accident of its sort
	guarded             bool // no upgrade fit: answered without a search
	cheapest            bool // every tile's cheapest row fit: answered without a search
	thinned, refThinned bool // at the instance's cap
	states, refStates   int  // frontier states kept by the exact (uncapped) searches
}

// costTolerance is how far two costs of one instance may differ and still
// count as equal where the comparison crosses searches that filter
// differently: the dominance filter's 1e-12 per tile and the rounding of
// the sums, far below any real difference between two plans.
func costTolerance(cost float64) float64 { return 1e-9 * (1 + math.Abs(cost)) }

// againstReference runs the bounded search and the reference on one
// instance and asserts the oracle contract:
//
//	(a) every frontier of the search, until the cap first thins one and
//	    including that one, is a subsequence of the exact reference
//	    frontier — the reference run uncapped — with (bits, cost) equal
//	    as float64s; the cut removes states and invents none;
//	(b) where neither search thinned, totals are equal as float64s, and
//	    levels are equal unless the reference's own answer was ambiguous;
//	    the search run uncapped is held to the same against the reference
//	    run uncapped;
//	(c) where the search did not thin, its cost is at most the
//	    reference's at the same cap;
//	(d) the plan is within budget, or all-lowest when nothing is;
//	(e) on a budget that fits the all-smallest plan and no step up from it
//	    (nothingAffordable), or one that fits every tile's cheapest row
//	    where those rows are clear of the others (cheapestAffordable), and
//	    on no other, the search builds no frontier and reports zero stats;
//	    (b) then holds its answer, the all-smallest or the all-cheapest
//	    plan, to the reference's like any other;
//
// and, on instances of at most exhaustiveTiles tiles, that the search run
// uncapped returns the cost AllocateExhaustive does.
func againstReference(t testing.TB, tiles []TileChoice, budget float64, maxFrontier int) (o oracleOutcome) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("n=%d budget=%v cap=%d: "+format, append([]any{len(tiles), budget, maxFrontier}, args...)...)
	}
	got, stats := SearchPruned(tiles, budget, maxFrontier)
	if len(got) != len(tiles) {
		fail("%d levels, want %d", len(got), len(tiles))
	}
	if len(tiles) == 0 {
		return o
	}
	if maxFrontier <= 0 {
		maxFrontier = 1024
	}
	var sc prunedScratch
	if a, st := sc.search(tiles, budget, maxFrontier); !slices.Equal(a, got) || st != stats {
		fail("search on fresh scratch %v %+v, on pooled scratch %v %+v", a, st, got, stats)
	}
	if kept := max(len(sc.slab)-1, 0); kept != stats.States {
		fail("stats count %d states, the slab holds %d", stats.States, kept)
	}
	if len(sc.starts) > 0 {
		if err := lpOrderErr(tiles, sc.ups); err != "" {
			fail("LP order: %s", err)
		}
	}

	// (d)
	if low := TotalBits(tiles, lowestLevels(len(tiles))); budget < low {
		if !slices.Equal(got, lowestLevels(len(tiles))) {
			fail("below the all-lowest size %v the fallback is all-lowest, got %v", low, got)
		}
	} else if b := TotalBits(tiles, got); b > budget {
		fail("plan of %v bits is over budget", b)
	}

	ref := referencePruned(tiles, budget, maxFrontier)
	exact := ref
	if ref.thinned > 0 {
		exact = referencePruned(tiles, budget, uncapped)
	}
	whole, wholeLevels := &sc, got
	if stats.Thinned > 0 {
		whole = new(prunedScratch)
		wholeLevels, _ = whole.search(tiles, budget, uncapped)
	}
	o = oracleOutcome{ambiguous: ref.ambiguous, thinned: stats.Thinned > 0, refThinned: ref.thinned > 0}
	// A search swept again in tile order holds that sweep's frontiers last,
	// after the first's in the slab; what it holds is compared with the
	// uncapped reference's sweep in the same order.
	twice := func(s *prunedScratch) bool { return len(s.starts) > 0 && s.starts[0] > 1 }
	overFor := func(s *prunedScratch) float64 {
		if twice(s) {
			return 0
		}
		return boundSlack * budget
	}
	exactFor := func(s *prunedScratch) refResult {
		if len(s.starts) == 0 || twice(s) == exact.twice {
			return exact
		}
		r, _ := referenceSweep(tiles, s.order, budget, overFor(s), uncapped)
		return r
	}

	// (a)
	o.guarded = nothingAffordable(tiles, budget)
	o.cheapest = !o.guarded && cheapestAffordable(tiles, budget)
	if o.guarded || o.cheapest {
		if len(whole.starts) != 0 || stats != (SearchStats{}) {
			fail("no upgrade fits, or every cheapest row does (%v), and the search still built %d frontiers, stats %+v", o.cheapest, len(whole.starts), stats)
		}
	} else if len(whole.starts) != len(tiles) && budget >= TotalBits(tiles, lowestLevels(len(tiles))) {
		fail("the uncapped search stopped after %d tiles", len(whole.starts))
	}
	wholeRef := exactFor(whole)
	for i := range whole.starts {
		f := whole.frontier(i)
		if j := notIn(f, wholeRef.frontiers[i]); j >= 0 {
			fail("tile %d state %d: (%v, %v) is not in the reference frontier, or out of order", i, j, f[j].bits, f[j].cost)
		}
		o.states += len(f)
		o.refStates += len(wholeRef.frontiers[i])
	}
	if stats.Thinned > 0 {
		// The capped search's last sweep against the uncapped search's sweep
		// in the same order. Its thinned steps are counted over both sweeps
		// where it swept twice, so there the last may have thinned none.
		first, capRef, uncut := -1, exactFor(&sc), whole
		if twice(&sc) != twice(whole) {
			uncut = uncappedSweep(tiles, budget, sc.order, overFor(&sc))
		}
		for i := range sc.starts {
			f, w := sc.frontier(i), uncut.frontier(i)
			if len(f) > maxFrontier {
				fail("tile %d: frontier of %d states over the cap", i, len(f))
			}
			if j := notIn(f, capRef.frontiers[i]); j >= 0 {
				fail("tile %d state %d: (%v, %v) is not in the reference frontier, or out of order", i, j, f[j].bits, f[j].cost)
			}
			if len(f) != len(w) {
				if len(w) <= maxFrontier {
					fail("tile %d: %d states, the uncapped search %d, neither over the cap", i, len(f), len(w))
				}
				first = i
				break
			}
		}
		if first < 0 && !twice(&sc) {
			fail("stats count %d thinned steps, but every frontier is the uncapped one", stats.Thinned)
		}
	}

	// (b) Where neither thinned, whole is the search at the cap and exact
	// the reference at the cap.
	if g, w := TotalBits(tiles, wholeLevels), TotalBits(tiles, exact.levels); g != w {
		fail("unthinned: total bits %v, reference %v", g, w)
	}
	if g, w := TotalCost(tiles, wholeLevels), TotalCost(tiles, exact.levels); g != w {
		fail("unthinned: total cost %v, reference %v", g, w)
	}
	if !exact.ambiguous && !slices.Equal(wholeLevels, exact.levels) {
		fail("unthinned: levels %v, reference %v", wholeLevels, exact.levels)
	}

	// (d) for every other plan compared here, by the same tile-order sum.
	if low := TotalBits(tiles, lowestLevels(len(tiles))); budget >= low {
		for _, p := range []Allocation{wholeLevels, ref.levels, exact.levels} {
			if b := TotalBits(tiles, p); b > budget {
				fail("a compared plan %v of %v bits is over budget", p, b)
			}
		}
	}

	// (c)
	if g, w := TotalCost(tiles, got), TotalCost(tiles, ref.levels); stats.Thinned == 0 && g > w+costTolerance(w) {
		fail("exact search cost %v above the reference's %v", g, w)
	}
	// Small instances have the brute-force optimum too.
	if len(tiles) <= exhaustiveTiles {
		best, err := AllocateExhaustive(tiles, budget)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := TotalCost(tiles, wholeLevels), TotalCost(tiles, best); math.Abs(g-w) > costTolerance(w) {
			fail("uncapped search cost %v, exhaustive optimum %v", g, w)
		}
	}
	return o
}

// uncappedSweep is the search's sweep of tiles in order, uncapped, its
// last step kept to over bits over the budget.
func uncappedSweep(tiles []TileChoice, budget float64, order []int32, over float64) *prunedScratch {
	sc, a := new(prunedScratch), make(Allocation, len(tiles))
	smallestRows(tiles, a)
	incumbent, lambda := sc.bound(tiles, budget, TotalBits(tiles, a), a)
	sc.slab, sc.order = []paretoState{{parent: -1}}, slices.Clone(order)
	sc.sweep(tiles, budget, over, uncapped, incumbent, lambda, new(SearchStats))
	return sc
}

// lpOrderErr says what is wrong with ups as the LP order, or "": it must
// be what a sort of the hull upgrades gives — efficiency descending, ties
// to the lower tile, then to its cheaper step — and hold every tile's hull
// chain, from its smallest row on, once.
func lpOrderErr(tiles []TileChoice, ups []hullUpgrade) string {
	for k := 1; k < len(ups); k++ {
		x, y := ups[k-1], ups[k]
		if !(x.eff > y.eff || x.eff == y.eff && (x.tile < y.tile || x.tile == y.tile && x.from > y.from)) {
			return fmt.Sprintf("upgrade %d %+v before %+v", k, x, y)
		}
	}
	next := make(Allocation, len(tiles))
	smallestRows(tiles, next)
	for _, u := range ups {
		if next[u.tile] != codec.Level(u.from) || u.to >= u.from {
			return fmt.Sprintf("tile %d steps %d→%d, its chain is at %d", u.tile, u.from, u.to, next[u.tile])
		}
		next[u.tile] = codec.Level(u.to)
	}
	return ""
}

// smallestAndStep returns the size of the all-smallest plan and its
// cheapest step up: the fewest extra bits of any row over its tile's
// smallest, +Inf when every row of every tile is its smallest.
func smallestAndStep(tiles []TileChoice) (low, minUp float64) {
	small := make(Allocation, len(tiles))
	smallestRows(tiles, small)
	low, minUp = TotalBits(tiles, small), math.Inf(1)
	for i := range tiles {
		for _, b := range tiles[i].Bits {
			if d := b - tiles[i].Bits[small[i]]; d > 0 {
				minUp = min(minUp, d)
			}
		}
	}
	return low, minUp
}

// nothingAffordable restates the first of the two cases the search
// answers without searching: the all-smallest plan fits the budget and
// its cheapest step up does not, by more than the rounding slack of the
// cuts.
func nothingAffordable(tiles []TileChoice, budget float64) bool {
	low, minUp := smallestAndStep(tiles)
	return budget >= low && low+minUp > budget+boundSlack*budget
}

// cheapestAffordable restates the other: the plan of every tile's
// cheapest row — the least cost, then the fewest bits, then the lower
// level — fits the budget by TotalBits, and every other row of a tile
// but an identical one is more than boundSlack of the budget larger or
// more than 2e-12 and boundSlack of that plan's cost costlier than the
// tile's cheapest.
func cheapestAffordable(tiles []TileChoice, budget float64) bool {
	top := cheapestRows(tiles)
	if TotalBits(tiles, top) > budget {
		return false
	}
	cost := TotalCost(tiles, top)
	for i, t := range tiles {
		c := top[i]
		for l := range t.Bits {
			same := t.Bits[l] == t.Bits[c] && t.Cost[l] == t.Cost[c]
			if !same && t.Bits[l]-t.Bits[c] <= boundSlack*budget && t.Cost[l]-t.Cost[c] <= 2e-12+boundSlack*cost {
				return false
			}
		}
	}
	return true
}

// cheapestRows returns every tile's cheapest row: the least cost, then
// the fewest bits, then the lower level.
func cheapestRows(tiles []TileChoice) Allocation {
	top, levels := make(Allocation, len(tiles)), make([]codec.Level, codec.NumLevels)
	for l := range levels {
		levels[l] = codec.Level(l)
	}
	for i, t := range tiles {
		top[i] = slices.MinFunc(levels, func(x, y codec.Level) int {
			if c := cmp.Compare(t.Cost[x], t.Cost[y]); c != 0 {
				return c
			}
			if c := cmp.Compare(t.Bits[x], t.Bits[y]); c != 0 {
				return c
			}
			return cmp.Compare(x, y)
		})
	}
	return top
}

// exhaustiveTiles is the largest instance the oracle also brute-forces:
// 5⁸ ≈ 390 000 plans.
const exhaustiveTiles = 8

// hasDuplicateRows reports whether some tile offers the same (bits,
// cost) at two levels.
func hasDuplicateRows(tiles []TileChoice) bool {
	for _, t := range tiles {
		for l := 1; l < codec.NumLevels; l++ {
			for k := 0; k < l; k++ {
				if t.Bits[k] == t.Bits[l] && t.Cost[k] == t.Cost[l] {
					return true
				}
			}
		}
	}
	return false
}

// Menu roundings of oracleInstance. Integer menus make exact (bits,
// cost) ties between different paths common. Centi-unit menus, the
// manifest's own precision, are not representable in binary, so the
// same real sum reached in two association orders differs by an ulp
// and the next shift can round the two onto equal bits.
const (
	menuContinuous = iota
	menuCenti
	menuInteger
	numMenus
)

// oracleInstance derives one seeded allocator problem: n tiles with the
// given menu rounding and a budget that is a multiple (0.5–6, so below
// the all-lowest size too) of the all-lowest size.
func oracleInstance(seed uint64, n, menu int) ([]TileChoice, float64) {
	rng := mathx.NewRNG(seed)
	tiles := randomTiles(rng, n)
	for i := range tiles {
		for l := range tiles[i].Bits {
			switch menu {
			case menuCenti:
				tiles[i].Bits[l] = math.Round(tiles[i].Bits[l]/10) / 100
				tiles[i].Cost[l] = math.Round(tiles[i].Cost[l]*10) / 100
			case menuInteger:
				tiles[i].Bits[l] = 1000 * math.Ceil(tiles[i].Bits[l]/1000)
				tiles[i].Cost[l] = math.Round(tiles[i].Cost[l])
			}
		}
	}
	return tiles, TotalBits(tiles, lowestLevels(n)) * rng.Range(0.5, 6)
}

var oracleCaps = []int{0, 256, 16}

// oracleCounters accumulates what the oracle saw over a table of
// instances, so that none of its comparisons passes by being vacuous.
type oracleCounters struct {
	instances, determined  int
	thinned, refThinned    int
	exactWhereRefThinned   int // (c) compared an exact answer with an approximate one
	states, refStates, cut int // cut: instances where the bound removed a state
}

func (c *oracleCounters) add(o oracleOutcome) {
	c.instances++
	if !o.ambiguous {
		c.determined++
	}
	if o.thinned {
		c.thinned++
	}
	if o.refThinned {
		c.refThinned++
		if !o.thinned {
			c.exactWhereRefThinned++
		}
	}
	c.states += o.states
	c.refStates += o.refStates
	if o.states < o.refStates {
		c.cut++
	}
}

func (c *oracleCounters) check(t *testing.T) {
	t.Helper()
	t.Logf("%d instances: %d determined; thinned %d (reference %d, exact where it thinned %d); exact frontiers hold %d states, reference %d; the bound cut %d instances",
		c.instances, c.determined, c.thinned, c.refThinned, c.exactWhereRefThinned, c.states, c.refStates, c.cut)
	if c.cut < c.instances/2 || c.states*2 > c.refStates {
		t.Errorf("the bound cut %d of %d instances and kept %d of %d states: the subsequence check compares a frontier with itself", c.cut, c.instances, c.states, c.refStates)
	}
	if c.exactWhereRefThinned == 0 {
		t.Error("no instance where only the reference thinned: cost ≤ reference went unexercised")
	}
	if c.thinned == 0 {
		t.Error("the search never thinned: the capped half of the subsequence check went unexercised")
	}
}

func TestPrunedMatchesReference(t *testing.T) {
	const instances = 540
	var c oracleCounters
	for s := 0; s < instances; s++ {
		n := 1 + s%72
		if testing.Short() && n > shortOracleTiles {
			continue
		}
		menu := s % numMenus
		tiles, budget := oracleInstance(uint64(1000+s), n, menu)
		o := againstReference(t, tiles, budget, oracleCaps[(s/numMenus)%len(oracleCaps)])
		if o.ambiguous && menu == menuContinuous && !hasDuplicateRows(tiles) {
			t.Errorf("instance %d: continuous menus without duplicate rows met an exact tie", s)
		}
		c.add(o)
	}
	c.check(t)
	// Every chunk of a real manifest has a flat tile, so only here can
	// the levels comparison be asked not to be vacuous.
	if c.determined < c.instances/2 {
		t.Errorf("only %d of %d instances had a determined answer", c.determined, c.instances)
	}
}

// shortOracleTiles bounds the seeded instances under -short, which is how
// make race runs: the exact reference on the larger ones sorts frontiers
// of thousands of states per tile, ≈3 minutes under the race detector.
// The plain tier-1 run takes every instance.
const shortOracleTiles = 40

// manifestFixture is a real provider manifest: 8 one-second chunks.
func manifestFixture(t testing.TB) *manifest.Video {
	t.Helper()
	v := scene.Generate(scene.Sports, 17, scene.Options{W: 240, H: 120, FPS: 10, DurationSec: 8})
	tr := viewport.Synthesize(v, 3, viewport.DefaultSynthesizeOpts())
	m, err := provider.Preprocess(v, []*viewport.Trace{tr}, provider.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// manifestRows builds chunk k's allocator input the way
// player.PanoPlanner.Plan does (player imports abr, so the arithmetic
// is repeated here): bits from the manifest, cost = area × PMSE of the
// lookup-table PSPNR estimate at the tile's action ratio.
func manifestRows(m *manifest.Video, k int, ratio func(tile int) float64) []TileChoice {
	rows := make([]TileChoice, len(m.Chunks[k].Tiles))
	for i := range rows {
		t := &m.Chunks[k].Tiles[i]
		area := float64(t.Rect.Area())
		for l := 0; l < codec.NumLevels; l++ {
			rows[i].Bits[l] = t.Bits[l]
			if p := t.LUT[l].PSPNR(t.RefPSPNR[l], ratio(i)); p < 100 {
				rows[i].Cost[l] = area * 65025 * math.Exp(-p*(math.Ln10/10))
			}
		}
	}
	return rows
}

func TestPrunedMatchesReferenceOnManifest(t *testing.T) {
	m := manifestFixture(t)
	if m.NumChunks() != 8 {
		t.Fatalf("%d chunks, want 8", m.NumChunks())
	}
	ratios := []func(int) float64{
		func(int) float64 { return 1 },
		func(i int) float64 { return 1 + 0.35*float64(i%7) },
	}
	flat := 0
	var c oracleCounters
	for k := 0; k < m.NumChunks(); k++ {
		for ri, ratio := range ratios {
			rows := manifestRows(m, k, ratio)
			if hasDuplicateRows(rows) {
				flat++
			}
			for l := 0; l < codec.NumLevels; l++ {
				for _, frac := range []float64{0.9, 1, 1.1} {
					if testing.Short() && frac != 1 {
						continue // see shortOracleTiles
					}
					budget := frac * m.ChunkBits(k, codec.Level(l))
					c.add(againstReference(t, rows, budget, oracleCaps[(k+ri+l)%len(oracleCaps)]))
				}
			}
		}
	}
	c.check(t)
	if flat == 0 {
		t.Error("no chunk of the manifest had a flat tile; the tie path went unexercised")
	}
}

// The two vod_session calls (benchmark seeds 2019 and 7) on which the
// search cut by the tangent alone thinned at the default cap and returned
// a plan of ParentCost: the rows as the planner built them, so the check
// needs no video (vod_test.go replays whole sessions). Neither thins now,
// and both cost the optimum.
func TestPrunedVodThinnedInstances(t *testing.T) {
	for _, in := range vodThinnedInstances(t) {
		if o := againstReference(t, in.Tiles, in.Budget, 0); o.thinned || !o.refThinned {
			t.Errorf("%s: search thinned %v, reference thinned %v; want the reference alone", in.Name, o.thinned, o.refThinned)
		}
		a, st := SearchPruned(in.Tiles, in.Budget, 0)
		if cost := TotalCost(in.Tiles, a); st.Thinned != 0 || cost != in.Optimum || cost >= in.ParentCost {
			t.Errorf("%s: cost %v with %d steps thinned, want the optimum %v (was %v)", in.Name, cost, st.Thinned, in.Optimum, in.ParentCost)
		}
		if ref := referencePruned(in.Tiles, in.Budget, uncapped); TotalCost(in.Tiles, ref.levels) != in.Optimum {
			t.Errorf("%s: the uncapped reference costs %v, the file says %v", in.Name, TotalCost(in.Tiles, ref.levels), in.Optimum)
		}
	}
}

// vodInstance is one row of testdata/vod_thinned.json.
type vodInstance struct {
	Name                        string
	Budget, ParentCost, Optimum float64
	Tiles                       []TileChoice
}

func vodThinnedInstances(t testing.TB) []vodInstance {
	t.Helper()
	b, err := os.ReadFile("testdata/vod_thinned.json")
	if err != nil {
		t.Fatal(err)
	}
	var instances []vodInstance
	if err := json.Unmarshal(b, &instances); err != nil || len(instances) != 2 {
		t.Fatalf("%d instances, error %v", len(instances), err)
	}
	return instances
}

// Budget placements of guardInstance, around [low, low+minUp): the
// interval on which the all-smallest plan fits and no step up from it
// does. placeUnderSlack is the edge the search's guard really has, the
// rounding slack below the step.
const (
	placeMultiple   = iota // oracleInstance's own: 0.5–6 × the all-lowest size
	placeBelowLow          // an ulp under low: the all-lowest fallback
	placeLow               // every session's first chunk
	placeAboveLow          // an ulp over
	placeInside            // drawn from the interval
	placeUnderSlack        // the largest budget the guard answers
	placeBelowStep         // an ulp under low+minUp: inside the slack, searched
	placeStep              // the cheapest upgrade fits exactly
	placeAboveStep         // an ulp over
	// Two placements of the exact form of the cut, on integer menus to the
	// bit: what some prefix of the sweep leaves the tiles to come is a
	// breakpoint of their LP, or nothing.
	placeSuffixBreak // all-smallest up to the middle swept tile, then a quarter of the LP's upgrades in its order
	placePrefixTop   // all-top up to the middle swept tile, all-smallest after it
	// Two placements of the all-cheapest exit: the size of the plan of
	// every tile's cheapest row, summed as TotalBits sums it, and an ulp
	// under it, where the sweep decides.
	placeCheapest
	placeUnderCheapest
	numPlaces
)

// Row shapes of guardInstance: what every third tile is turned into.
const (
	shapeSmooth    = iota // randomTiles' rows as they are
	shapeFlat             // the bottom rungs identical rows: the free upgrade
	shapeEqualBits        // the bottom rungs one size at rising cost
	shapeZeroCost         // no cost at any level
	shapeHeavy            // the upper rungs six times the size: a real chunk's large tiles, where the LP's gap is
	shapeCapped           // the upper rungs cost nothing, as at a PSPNR capped at 100 dB: zero-cost ties, the fewest bits cheapest
	numShapes
)

// guardInstance is oracleInstance with the row shape and the budget
// placement folded into the fuzz target's menu byte after the rounding:
// menu = rounding + numMenus·(place + numPlaces·shape). Menus below
// numMenus are oracleInstance's instances unchanged.
func guardInstance(seed uint64, n, menu int) ([]TileChoice, float64) {
	tiles, budget := oracleInstance(seed, n, menu%numMenus)
	place, shape := menu/numMenus%numPlaces, menu/numMenus/numPlaces%numShapes
	for i := 0; i < n; i += 3 {
		t, from := &tiles[i], 2+i%2
		switch shape {
		case shapeFlat:
			flatBottom(t, from)
		case shapeEqualBits:
			for l := from + 1; l < codec.NumLevels; l++ {
				t.Bits[l] = t.Bits[from]
			}
		case shapeZeroCost:
			t.Cost = [codec.NumLevels]float64{}
		case shapeHeavy:
			for l := 0; l < from; l++ {
				t.Bits[l] *= 6
			}
		case shapeCapped:
			for l := 0; l < from; l++ {
				t.Cost[l] = 0
			}
		}
	}
	if place == placeMultiple {
		return tiles, budget
	}
	low, minUp := smallestAndStep(tiles)
	// The guard's own edge: the largest budget with
	// low+minUp > budget+boundSlack·budget, found from the quotient.
	edge := (low + minUp) / (1 + boundSlack)
	for low+minUp > edge+boundSlack*edge {
		edge = math.Nextafter(edge, math.Inf(1))
	}
	for !(low+minUp > edge+boundSlack*edge) {
		edge = math.Nextafter(edge, 0)
	}
	switch place {
	case placeBelowLow:
		budget = math.Nextafter(low, 0)
	case placeLow:
		budget = low
	case placeAboveLow:
		budget = math.Nextafter(low, math.Inf(1))
	case placeInside:
		budget = low + mathx.NewRNG(seed^0x9e37).Range(0, 0.999)*minUp
	case placeUnderSlack:
		budget = edge
	case placeBelowStep:
		budget = math.Nextafter(low+minUp, 0)
	case placeStep:
		budget = low + minUp
	case placeAboveStep:
		budget = math.Nextafter(low+minUp, math.Inf(1))
	case placeSuffixBreak:
		budget = low + minUp // where the tiles from the middle one on have no upgrade
		_, _, _, ups := lpOf(tiles, low)
		at, k, pos := low, 0, sweepPos(tiles)
		for _, u := range ups {
			if pos[u.tile] >= n/2 && k <= len(ups)/4+int(seed%4) {
				at += u.dBits
				budget, k = at, k+1
			}
		}
	case placeCheapest:
		budget = TotalBits(tiles, cheapestRows(tiles))
	case placeUnderCheapest:
		budget = math.Nextafter(TotalBits(tiles, cheapestRows(tiles)), 0)
	case placePrefixTop:
		budget = low
		for _, i := range sweepOrder(tiles, nil)[:n/2+1] {
			budget += tiles[i].Bits[0] - slices.Min(tiles[i].Bits[:])
		}
	}
	return tiles, budget
}

// The guard is the search: on budgets at, inside and an ulp either side
// of both ends of the interval where no upgrade fits, over smooth, flat,
// equal-size and zero-cost rows down to a single tile, the contract holds
// — (e) says which calls may skip the sweep, (b) that what they return is
// what the reference's sweep ends on.
func TestPrunedGuardMatchesSearch(t *testing.T) {
	var guarded, cheapest, calls [numPlaces]int
	for s := 0; s < 96; s++ {
		n := 1 + (5*s)%48
		if s%8 == 0 {
			n = 1
		}
		for place := placeBelowLow; place < numPlaces; place++ {
			shape := (s + place) % numShapes
			tiles, budget := guardInstance(uint64(7000+s), n, s%numMenus+numMenus*(place+numPlaces*shape))
			calls[place]++
			o := againstReference(t, tiles, budget, oracleCaps[s%len(oracleCaps)])
			if o.guarded {
				guarded[place]++
			}
			if o.cheapest {
				cheapest[place]++
			}
		}
	}
	t.Logf("answered without a search, by placement: no upgrade fits %v, every cheapest row fits %v, of %v", guarded, cheapest, calls)
	for place := placeBelowLow; place < numPlaces; place++ {
		switch place {
		case placeCheapest:
			// A plan of every tile's smallest row as its cheapest is the
			// guard's, on a budget no upgrade fits.
			if guarded[place]+cheapest[place] != calls[place] {
				t.Errorf("at the all-cheapest size: %d + %d of %d calls answered without a search", guarded[place], cheapest[place], calls[place])
			}
		case placeUnderCheapest:
			if guarded[place]+cheapest[place] != 0 {
				t.Errorf("an ulp under the all-cheapest size: %d + %d of %d calls answered without a search", guarded[place], cheapest[place], calls[place])
			}
		default:
			inside := place >= placeLow && place <= placeUnderSlack
			if inside && guarded[place] != calls[place] || !inside && guarded[place] != 0 {
				t.Errorf("placement %d: %d of %d calls answered without a search", place, guarded[place], calls[place])
			}
		}
	}
}

// The all-cheapest exit is the sweep's answer. On budgets at the size of
// every tile's cheapest row, an ulp either side and half as much again,
// over every row shape and rounding, SearchPruned returns what its sweep
// returns run on the same rows past the exits. Every fifth instance gets a
// row within the dominance filter's tolerance of a cheapest row, in cost
// with fewer bits or in bits at the same cost: there the exit must stand
// aside, and on some the sweep's plan is not the all-cheapest one, which
// is what the exit's margins are for.
func TestCheapestExitIsTheSweep(t *testing.T) {
	var fired, nearTies, differs int
	for s := 0; s < 240; s++ {
		n := 1 + (7*s)%40
		tiles, _ := guardInstance(uint64(9000+s), n, s%numMenus+numMenus*numPlaces*(s%numShapes))
		near := s%5 == 4
		if near {
			top := cheapestRows(tiles)
			t0, c := &tiles[0], top[0]
			if c > 0 && (s%2 == 1 || int(c) == codec.NumLevels-1) {
				// One level up: the same cost, a hair larger.
				t0.Cost[c-1], t0.Bits[c-1] = t0.Cost[c], math.Nextafter(t0.Bits[c], math.Inf(1))
			} else {
				// One level down: fewer bits, a hair costlier.
				t0.Cost[c+1] = t0.Cost[c] + 5e-13
			}
			nearTies++
		}
		top := cheapestRows(tiles)
		size := TotalBits(tiles, top)
		for _, budget := range []float64{size, math.Nextafter(size, 0), math.Nextafter(size, math.Inf(1)), 1.5 * size} {
			a := make(Allocation, n)
			smallestRows(tiles, a)
			low := TotalBits(tiles, a)
			if budget < low {
				continue // the all-lowest fallback
			}
			got, st := SearchPruned(tiles, budget, uncapped)
			exit := cheapestAffordable(tiles, budget) && !nothingAffordable(tiles, budget)
			if exit != (st == SearchStats{} && !nothingAffordable(tiles, budget)) {
				t.Fatalf("instance %d budget %v: cheapestAffordable %v, stats %+v", s, budget, exit, st)
			}
			if near && exit {
				t.Fatalf("instance %d budget %v: the exit took a cheapest row with a row within the tolerance", s, budget)
			}
			var sc prunedScratch
			sc.searched(tiles, budget, low, uncapped, a)
			if !slices.Equal(got, a) {
				t.Fatalf("instance %d budget %v (exit %v): search %v, its sweep %v", s, budget, exit, got, a)
			}
			if exit {
				fired++
			}
			if near && budget >= size && !slices.Equal(a, top) {
				differs++
			}
		}
	}
	t.Logf("the exit answered %d calls; %d instances with a near tie, on %d calls of which the sweep's plan is not the all-cheapest", fired, nearTies, differs)
	if fired < 240 || differs == 0 {
		t.Errorf("the exit answered %d calls, and the near ties moved the sweep off the all-cheapest plan on %d", fired, differs)
	}
}

func FuzzAllocatePruned(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint16(0), uint8(menuContinuous))
	f.Add(uint64(2), uint8(30), uint16(0), uint8(menuContinuous))
	f.Add(uint64(3), uint8(72), uint16(256), uint8(menuCenti))
	f.Add(uint64(4), uint8(30), uint16(16), uint8(menuCenti))
	f.Add(uint64(5), uint8(12), uint16(1), uint8(menuInteger))
	f.Add(uint64(6), uint8(72), uint16(0), uint8(menuInteger))
	f.Fuzz(func(t *testing.T, seed uint64, n uint8, maxFrontier uint16, menu uint8) {
		tiles, budget := guardInstance(seed, 1+int(n)%72, int(menu))
		againstReference(t, tiles, budget, int(maxFrontier))
	})
}

// fuzzSeedArgs reads the committed FuzzAllocatePruned seeds whose names
// match pattern: seed, n, cap and menu of each, by file.
func fuzzSeedArgs(t *testing.T, pattern string, atLeast int) map[string][4]uint64 {
	t.Helper()
	files, err := filepath.Glob("testdata/fuzz/FuzzAllocatePruned/" + pattern)
	if err != nil || len(files) < atLeast {
		t.Fatalf("%d %s seeds, error %v", len(files), pattern, err)
	}
	arg := regexp.MustCompile(`\((?:'\\x([0-9a-f]{2})'|(\d+))\)`)
	seeds := make(map[string][4]uint64)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var v []uint64
		for _, m := range arg.FindAllStringSubmatch(string(b), -1) {
			x, err := strconv.ParseUint(m[1], 16, 8)
			if m[2] != "" {
				x, err = strconv.ParseUint(m[2], 10, 64)
			}
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			v = append(v, x)
		}
		if len(v) != 4 {
			t.Fatalf("%s: %d arguments, want seed, n, cap, menu", f, len(v))
		}
		seeds[f] = [4]uint64(v)
	}
	return seeds
}

// The committed exact-* seeds are the cases of the exact form of the cut
// (TestPrunedBoundEdgeCases' last four, on guardInstance's heavy shape), so
// each must reach a frontier of exactWidth states, or it replays nothing
// the other seeds do not.
func TestFuzzSeedsReachTheExactForm(t *testing.T) {
	for f, v := range fuzzSeedArgs(t, "exact-*", 5) {
		tiles, budget := guardInstance(v[0], 1+int(v[1])%72, int(v[3]))
		if menu := int(v[3]); menu/numMenus/numPlaces%numShapes != shapeHeavy || !exactFormRan(tiles, budget) {
			t.Errorf("%s: menu %d, n=%d budget=%v never reached a frontier of %d states", f, menu, len(tiles), budget, exactWidth)
		}
	}
}

// The committed order-* seeds are TestPrunedSumOrderAtTheBudget's first two
// cases on guardInstance's budgets at a step up: the cheapest final state's
// bits, summed in sweep order, and its plan's TotalBits are either side of
// the budget, at least one seed each way round. (order-capped_once-centi is
// over in tile order uncapped, and at its cap sweeps once.)
func TestFuzzSeedsRoundEitherSide(t *testing.T) {
	var over [2]int // [0]: over in tile order, [1]: over in sweep order
	for f, v := range fuzzSeedArgs(t, "order-*", 3) {
		tiles, budget := guardInstance(v[0], 1+int(v[1])%72, int(v[3]))
		order := sweepOrder(tiles, nil)
		r, _ := referenceSweep(tiles, order, budget, boundSlack*budget, uncapped)
		swept, forward := sweptBits(tiles, order, r.levels), TotalBits(tiles, r.levels)
		switch {
		case swept <= budget && forward > budget:
			over[0]++
		case forward <= budget && swept > budget:
			over[1]++
		default:
			t.Errorf("%s: the cheapest final state is %v bits in sweep order, %v in tile order, both on one side of the budget %v", f, swept, forward, budget)
		}
	}
	if over[0] == 0 || over[1] == 0 {
		t.Errorf("over in tile order %d, over in sweep order %d: want a seed each way round", over[0], over[1])
	}
}

// The committed cheapest-* seeds are the all-cheapest exit's boundary: at
// the size of every tile's cheapest row the search answers without a
// sweep, an ulp under it the sweep decides, and the capped ones tie rows
// at zero cost, where the cheapest is the smaller.
func TestFuzzSeedsAtTheCheapestPlan(t *testing.T) {
	for f, v := range fuzzSeedArgs(t, "cheapest-*", 5) {
		tiles, budget := guardInstance(v[0], 1+int(v[1])%72, int(v[3]))
		under := strings.Contains(f, "ulp_under")
		if _, st := SearchPruned(tiles, budget, int(v[2])); cheapestAffordable(tiles, budget) == under || (st == SearchStats{}) != !under {
			t.Errorf("%s: n=%d budget=%v: all-cheapest exit %v, stats %+v", f, len(tiles), budget, !under, st)
		}
		if !strings.Contains(f, "capped") {
			continue
		}
		top, ties := cheapestRows(tiles), 0
		for i, c := range top {
			if c > 0 && tiles[i].Cost[0] == 0 && tiles[i].Cost[c] == 0 {
				ties++
			}
		}
		if ties == 0 {
			t.Errorf("%s: no tile's cheapest row is a smaller zero-cost tie with the top row", f)
		}
	}
}

// sweptBits is a plan's size summed as a sweep in order sums it.
func sweptBits(tiles []TileChoice, order []int32, a Allocation) float64 {
	var s float64
	for _, j := range order {
		s += tiles[j].Bits[a[j]]
	}
	return s
}

// flatBottom makes levels from..lowest of a tile identical rows, as the
// encoder does for flat content (the rungs below some QP cost the same
// bits and lose nothing more).
func flatBottom(t *TileChoice, from int) {
	for l := from + 1; l < codec.NumLevels; l++ {
		t.Bits[l], t.Cost[l] = t.Bits[from], t.Cost[from]
	}
}

// Identical rows tie exactly on (bits, cost); the lower level index is
// the defined winner, at every budget and cap.
func TestPrunedTieTakesLowerLevel(t *testing.T) {
	rng := mathx.NewRNG(11)
	tiles := randomTiles(rng, 12)
	flatBottom(&tiles[2], 3) // two identical rows
	flatBottom(&tiles[7], 3)
	flatBottom(&tiles[9], 2) // three identical rows
	low := TotalBits(tiles, lowestLevels(len(tiles)))
	for _, maxFrontier := range oracleCaps {
		for _, frac := range []float64{0.5, 1, 1.05, 1.3, 2, 4} {
			a := AllocatePruned(tiles, low*frac, maxFrontier)
			for i, l := range a {
				if l > 0 && tiles[i].Bits[l-1] == tiles[i].Bits[l] && tiles[i].Cost[l-1] == tiles[i].Cost[l] && frac >= 1 {
					t.Errorf("cap %d budget %.2f×: tile %d at level %d, identical to level %d", maxFrontier, frac, i, l, l-1)
				}
			}
			if frac < 1 && !slices.Equal(a, lowestLevels(len(tiles))) {
				t.Errorf("cap %d: below the all-lowest size the fallback is all-lowest, got %v", maxFrontier, a)
			}
			againstReference(t, tiles, low*frac, maxFrontier)
		}
		// At exactly the all-lowest size only the flat tiles can move.
		a := AllocatePruned(tiles, low, maxFrontier)
		want := lowestLevels(len(tiles))
		want[2], want[7], want[9] = 3, 3, 2
		if !slices.Equal(a, want) {
			t.Errorf("cap %d: at the all-lowest size levels %v, want %v", maxFrontier, a, want)
		}
	}
}

// A plan's size summed in the sweep's order and in tile order, as
// TotalBits sums it, can round to the two sides of a budget: 1 + 2⁻⁵³
// rounds to 1, 2⁻⁵³ + 2⁻⁵³ does not. Three tiles make it happen — two
// whose upgrade is 2⁻⁵³ bits and one whose upgrade is 1 — with the budget
// 1. The plan is the cheapest final state of the sweep. Over the budget
// in tile order, it sends the call to a second sweep, in tile order; over
// it in sweep order, it is the answer, which a last step cut at the budget
// would have lost. The 1-bit row is above its tile's hull, so no rounding
// of the LP is the plan and the incumbent cannot stand in for the sweep.
// In the third case the small tiles' lowest rows are cheap enough that the
// optimum mixes them, and in sweep order the plan dominates it: a pick
// among the first sweep's final states would have missed it.
func TestPrunedSumOrderAtTheBudget(t *testing.T) {
	eps := math.Ldexp(1, -53)
	wide := TileChoice{Bits: [codec.NumLevels]float64{2, 1, 1, 1, 0}, Cost: [codec.NumLevels]float64{0, 60, 60, 60, 100}}
	small := TileChoice{Bits: [codec.NumLevels]float64{eps, eps, eps, eps, 0}, Cost: [codec.NumLevels]float64{1, 1, 1, 1, 1000}}
	wider := small // its top row the widest span of the three: swept first
	wider.Bits[0] = 8
	wide2, small2 := wide, small
	wide2.Cost[4], small2.Cost[4] = 110, 10
	for _, c := range []struct {
		name  string
		tiles []TileChoice
		plan  Allocation // of the cheapest final state of the sweep
		fits  bool       // by the tile-order sum
	}{
		{"over in tile order", []TileChoice{small, small, wide}, Allocation{0, 0, 1}, false},
		{"over in sweep order", []TileChoice{wide, wider, wider}, Allocation{1, 1, 1}, true},
		{"over in tile order, the optimum dominated", []TileChoice{small2, small2, wide2}, Allocation{0, 0, 1}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			const budget = 1.0
			order := sweepOrder(c.tiles, nil)
			if swept := sweptBits(c.tiles, order, c.plan); (swept <= budget) != !c.fits || (TotalBits(c.tiles, c.plan) <= budget) != c.fits {
				t.Fatalf("plan %v: %v bits in sweep order, %v in tile order; want them either side of the budget", c.plan, swept, TotalBits(c.tiles, c.plan))
			}
			if r, fits := referenceSweep(c.tiles, order, budget, boundSlack*budget, uncapped); !slices.Equal(r.levels, c.plan) || fits != c.fits {
				t.Fatalf("the sweep's cheapest final state is %v (fits %v), want %v", r.levels, fits, c.plan)
			}
			best, err := AllocateExhaustive(c.tiles, budget)
			if err != nil {
				t.Fatal(err)
			}
			if c.fits != (TotalCost(c.tiles, best) == TotalCost(c.tiles, c.plan)) {
				t.Fatalf("exhaustive %v, the plan %v", best, c.plan)
			}
			// The answer is the one a sweep in tile order gives, at the
			// exhaustive optimum's cost.
			want, _ := referenceSweep(c.tiles, tileOrder(len(c.tiles)), budget, 0, uncapped)
			if TotalCost(c.tiles, want.levels) != TotalCost(c.tiles, best) {
				t.Fatalf("tile-order sweep %v, exhaustive %v", want.levels, best)
			}
			for _, maxFrontier := range oracleCaps {
				if got := AllocatePruned(c.tiles, budget, maxFrontier); !slices.Equal(got, want.levels) {
					t.Errorf("cap %d: levels %v (%v bits), want %v", maxFrontier, got, TotalBits(c.tiles, got), want.levels)
				}
				var sc prunedScratch
				if sc.search(c.tiles, budget, maxFrontier); (sc.starts[0] > 1) == c.fits {
					t.Errorf("cap %d: swept twice %v, want %v", maxFrontier, sc.starts[0] > 1, !c.fits)
				}
				againstReference(t, c.tiles, budget, maxFrontier)
			}
		})
	}
}

// Two parents an ulp of bits apart whose extensions round to the same
// bits: sorted, the cheaper one — the later parent — comes first and is
// the only survivor. A frontier that kept both would be over cap 2 and
// thinned to the dearer of each pair.
func TestPrunedEqualBitsRunKeepsCheapest(t *testing.T) {
	up := math.Nextafter(1, 2)
	tiles := []TileChoice{
		// Frontier after tile 0: (1, 1.5) via level 1, (1+ulp, 1) via
		// level 0; levels 2–4 are dominated.
		{Bits: [codec.NumLevels]float64{up, 1, 1, 1, 1}, Cost: [codec.NumLevels]float64{1, 1.5, 2, 2, 2}},
		// 512 and 1024 swallow the ulp: the frontier after tile 1 is
		// (513, 21), (1025, 11), both through the second parent.
		{Bits: [codec.NumLevels]float64{1024, 512, 512, 512, 512}, Cost: [codec.NumLevels]float64{10, 20, 30, 30, 30}},
	}
	for _, maxFrontier := range []int{0, 256, 16, 2} {
		a := AllocatePruned(tiles, 1e6, maxFrontier)
		if want := (Allocation{0, 0}); !slices.Equal(a, want) {
			t.Errorf("cap %d: levels %v, want %v", maxFrontier, a, want)
		}
		againstReference(t, tiles, 1e6, maxFrontier)
	}
}

// The same two parents, now also a hair (more than the filter's 1e-12,
// less than an ulp of the shifted cost) apart in cost, so that their
// extensions are identical in bits and cost: the lower parent index is
// the defined winner.
func TestPrunedTieTakesLowerParent(t *testing.T) {
	up := math.Nextafter(1, 2)
	tiles := []TileChoice{
		{Bits: [codec.NumLevels]float64{up, 1, 1, 1, 1}, Cost: [codec.NumLevels]float64{1, 1 + 1e-9, 2, 2, 2}},
		{Bits: [codec.NumLevels]float64{1024, 1024, 1024, 1024, 1024}, Cost: [codec.NumLevels]float64{1 << 30, 1 << 31, 1 << 31, 1 << 31, 1 << 31}},
	}
	for _, maxFrontier := range oracleCaps {
		a := AllocatePruned(tiles, 1e6, maxFrontier)
		if want := (Allocation{1, 0}); !slices.Equal(a, want) {
			t.Errorf("cap %d: levels %v, want %v", maxFrontier, a, want)
		}
		againstReference(t, tiles, 1e6, maxFrontier)
	}
}

// manifestShapedTiles builds rows shaped like a real manifest's: sizes
// falling ~1.6× per level, distortion rising, level 0 lossless to the
// eye, and every tenth tile flat (its two bottom rungs identical).
func manifestShapedTiles(n int) []TileChoice {
	rng := mathx.NewRNG(9)
	tiles := randomTiles(rng, n)
	for i := 4; i < n; i += 10 {
		flatBottom(&tiles[i], 3)
	}
	return tiles
}

var sinkAllocation Allocation

// BenchmarkAllocatePruned times one call. The 30tiles and 72tiles rows
// are synthetic menus with smooth costs, nothing_affordable the same menus
// at a budget of exactly the all-lowest size. bench_video is a real manifest:
// every chunk of manifestFixture at the sizes of its uniform levels 1–3,
// budgets the tangent decides on frontiers of a dozen states. vod_links is
// the same chunks at the budgets constrained links produce (vodLinkBudgets).
// Real costs are heavy-tailed — one large tile's upgrade can be a fifth of
// the budget — and at a fifth to a third of the top bitrate that upgrade
// is the one the LP cannot fit: its gap, and so the search, is widest
// there, and the exact form of the cut is what keeps the frontiers narrow
// (EXPERIMENTS.md, "What bounding the search changed").
func BenchmarkAllocatePruned(b *testing.B) {
	for _, bc := range []struct {
		name string
		n    int
	}{{"30tiles", 30}, {"72tiles", 72}} {
		b.Run(bc.name, func(b *testing.B) {
			tiles := manifestShapedTiles(bc.n)
			budget := TotalBits(tiles, lowestLevels(bc.n)) * 2.5
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkAllocation = AllocatePruned(tiles, budget, 0)
			}
		})
	}
	// The swarm's operating point: the budget is the all-lowest size, no
	// upgrade fits, and the call is the pass that finds that out.
	for _, n := range []int{30, 72} {
		b.Run(fmt.Sprintf("nothing_affordable/%dtiles", n), func(b *testing.B) {
			tiles := manifestShapedTiles(n)
			budget := TotalBits(tiles, lowestLevels(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkAllocation = AllocatePruned(tiles, budget, 0)
			}
		})
	}
	for _, bc := range []struct {
		name    string
		budgets func(m *manifest.Video, k int) []float64 // of chunk k
	}{
		{"bench_video", func(m *manifest.Video, k int) []float64 {
			return []float64{m.ChunkBits(k, 1), m.ChunkBits(k, 2), m.ChunkBits(k, 3)}
		}},
		{"vod_links", func(m *manifest.Video, k int) (out []float64) {
			for _, frac := range vodLinkBudgets {
				out = append(out, frac*m.ChunkBits(k, 0))
			}
			return out
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m := manifestFixture(b)
			type call struct {
				rows   []TileChoice
				budget float64
			}
			var calls []call
			for k := 0; k < m.NumChunks(); k++ {
				rows := manifestRows(m, k, func(i int) float64 { return 1 + 0.35*float64(i%7) })
				for _, budget := range bc.budgets(m, k) {
					calls = append(calls, call{rows, budget})
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := &calls[i%len(calls)]
				sinkAllocation = AllocatePruned(c.rows, c.budget, 0)
			}
		})
	}
}

// vodLinkBudgets are the budgets the MPC hands the planner on the
// benchmark's 0.18× and 0.30× links, as shares of the chunk's top bitrate:
// the minimum, first decile, quartiles and last decile of the 112 searched
// calls of one vod_session pass (TestVodSessionsSearchedExactly's).
var vodLinkBudgets = []float64{0.13, 0.17, 0.19, 0.25, 0.32, 0.35}

// smallestRows sets a to every tile's smallest row.
func smallestRows(tiles []TileChoice, a Allocation) {
	for i := range tiles {
		a[i] = smallestRow(&tiles[i])
	}
}
