// Package abr implements Pano's two-level quality adaptation (§6.1):
//
//   - Chunk level: an MPC controller (after Yin et al.) picks each
//     chunk's bitrate budget to balance quality against rebuffering
//     under predicted bandwidth, with a target buffer length.
//   - Tile level: given the chunk budget, assign a quality level to each
//     tile to maximize the chunk PSPNR — equivalently, minimize the
//     area-weighted sum of perceptible MSEs — subject to the total tile
//     size staying within budget.
//
// Three tile allocators are provided: the paper's dominance-pruned
// enumeration (exact Pareto-frontier dynamic programming over tiles),
// which every Pano plan goes through; a fast greedy marginal-utility
// allocator, the viewport-driven baselines' (§8); and an exhaustive
// search for small instances (ground truth in tests and the pruning
// benchmark).
//
// The pruned enumeration is what a session spends its compute on. Its
// tile step is a merge, not a sort; a partial assignment is dropped as it
// is formed unless cost + LPᵢ₊₁(budget − bits), the LP relaxation of the
// tiles still to come at the bits it has left, is at most U, the cheapest
// plan known, which falls as the sweep completes its states with prefixes
// of that LP; and the frontiers and the LP tables of a call live in one
// pooled scratch, so a call allocates only its result. AllocatePruned
// documents the cut and the ordering rules that make the merge the same
// search. Budgets too small for any upgrade — every chunk of a starved
// session — are answered before a search by Starved, which reads a tile's
// costs only where two of its levels tie at its smallest size, so a
// planner asks it before it builds the costs at all. What it reads of the
// bits is a Floor, which a planner of fixed bits (a manifest's) keeps per
// chunk and answers from, Starved and search alike.
package abr

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"pano/internal/codec"
)

// TileChoice describes one tile's options: encoded size and weighted
// perceptible distortion (area × PMSE) at each quality level. Level 0 is
// the highest quality: Bits non-increasing and Cost non-decreasing in
// the level index.
type TileChoice struct {
	Bits [codec.NumLevels]float64
	Cost [codec.NumLevels]float64
}

// Allocation is the chosen level per tile.
type Allocation []codec.Level

// TotalBits sums the allocation's size.
func TotalBits(tiles []TileChoice, a Allocation) float64 {
	var s float64
	for i, l := range a {
		s += tiles[i].Bits[l]
	}
	return s
}

// TotalCost sums the allocation's weighted distortion.
func TotalCost(tiles []TileChoice, a Allocation) float64 {
	var s float64
	for i, l := range a {
		s += tiles[i].Cost[l]
	}
	return s
}

// lowestLevels returns the all-lowest-quality allocation.
func lowestLevels(n int) Allocation {
	a := make(Allocation, n)
	for i := range a {
		a[i] = codec.Level(codec.NumLevels - 1)
	}
	return a
}

// AllocateGreedy assigns levels by repeated marginal-utility upgrades:
// starting from the lowest quality everywhere, it upgrades whichever
// tile yields the largest distortion reduction per additional bit until
// the budget is exhausted. Every upgrade rescans all tiles and there
// are at most N·(L−1) upgrades, so it runs in O(N²·L).
//
// An upgrade fits when the allocation it makes sums, as TotalBits sums
// it, to at most budget. The running sum of upgrade steps drifts from
// that sum by rounding, so where the two could disagree — a budget that
// is some allocation's size to the bit, such as a uniform level's
// Video.ChunkBits — the candidate is summed whole.
func AllocateGreedy(tiles []TileChoice, budget float64) Allocation {
	a := lowestLevels(len(tiles))
	spent := TotalBits(tiles, a)
	// Within near of the budget the running sum cannot tell.
	near := 1e-9 * math.Abs(budget)
	type cand struct {
		tile  int
		ratio float64
	}
	better := func(i int) (cand, bool) {
		l := a[i]
		if l == 0 {
			return cand{}, false
		}
		db := tiles[i].Bits[l-1] - tiles[i].Bits[l]
		dc := tiles[i].Cost[l] - tiles[i].Cost[l-1]
		if db <= 0 {
			// Free upgrade.
			return cand{tile: i, ratio: math.Inf(1)}, true
		}
		return cand{tile: i, ratio: dc / db}, true
	}
	for {
		best := cand{tile: -1, ratio: -1}
		for i := range tiles {
			c, ok := better(i)
			if !ok {
				continue
			}
			l := a[i]
			if s := spent + (tiles[i].Bits[l-1] - tiles[i].Bits[l]); s > budget-near {
				if s > budget+near {
					continue
				}
				a[i]--
				s = TotalBits(tiles, a)
				a[i]++
				if s > budget {
					continue
				}
			}
			if c.ratio > best.ratio {
				best = c
			}
		}
		if best.tile < 0 {
			return a
		}
		l := a[best.tile]
		spent += tiles[best.tile].Bits[l-1] - tiles[best.tile].Bits[l]
		a[best.tile] = l - 1
	}
}

// paretoState is a partial assignment on the (bits, cost) plane.
type paretoState struct {
	bits, cost float64
	parent     int32 // index into the previous tile's frontier
	level      uint8 // level chosen for the current tile
}

// hullUpgrade is one step along the lower convex hull of a tile's
// (bits, cost) rows: dBits more bits buy dCost less cost, eff per bit.
type hullUpgrade struct {
	eff, dBits, dCost float64
	tile              int32
	from, to          uint8
}

// lpStep is one breakpoint of a suffix's LP relaxation: bits over its
// all-smallest size save save, and eff more per bit up to the next one.
type lpStep struct{ bits, save, eff float64 }

// prunedScratch is the working memory of one search: every step's
// frontier back to back in one slab (the empty assignment first, a second
// sweep's after the first's), with starts[i] the slab offset of the last
// sweep's i-th, and the tables of the call's LP relaxation (bound) and of
// one tile step's (suffixLP).
type prunedScratch struct {
	slab   []paretoState
	starts []int
	// Tile order[i] is swept i-th; tile j at pos[j].
	order, pos []int32
	// ups is every tile's hull upgrades, most efficient first, sorted from
	// hull, where bound lists them tile by tile. After bound, hull is a
	// sweep's copy of ups that suffixLP compacts to the tiles still to
	// come.
	ups, hull []hullUpgrade
	buckets   [257]int32  // lpOrder's counts
	rest      []suffixMin // rest[i] is of the tiles swept from i on
	lp        []lpStep
	forced    Allocation
	// floor is the call's, where the caller brings none; small is the
	// all-smallest plan, every tile at its smallest row (bound sets it).
	floor Floor
	small Allocation
}

// suffixMin sums over a suffix of the tiles what each costs at the least:
// min_l Bits_jl, the cost of that row, and min_l(Cost_jl + λ·Bits_jl).
type suffixMin struct{ bits, base, cost float64 }

// prunedPool recycles scratch across calls: planners are shared between
// goroutines (one Planner serves every swarm worker), so the scratch
// cannot live on the caller's value.
var prunedPool = sync.Pool{New: func() any { return new(prunedScratch) }}

// SearchStats counts what one pruned search did.
type SearchStats struct {
	States  int // frontier states kept, summed over the tile steps
	Thinned int // tile steps whose frontier hit the cap and was thinned
}

// boundSlack is the relative rounding slack of the search's cut, which
// compares sums of the same ≤ 2N+2 terms taken in different orders. They
// differ by ≈ N·2⁻⁵³ of the largest sum — the all-smallest cost the exact
// form takes its savings from, not the incumbent, which is what is left
// and near the all-top budget can be zero. 1e-9 of that is five orders
// above the difference for any N that fits a frontier and five below the
// gap between the incumbent and the LP bound (about one upgrade in N).
const boundSlack = 1e-9

// exactWidth is the frontier width from which a sweep puts the exact form
// of the cut. Its table per tile step, which also completes the step's
// states into plans that lower U, repays itself on dozens of states, not
// on the handful of a sweep's first steps or of a budget the tangent
// decides. BenchmarkAllocatePruned on two cores, the median of three runs
// taken in turn, with the table from the 1st, 8th, 16th and 32nd state on:
// 72tiles 107, 86, 64 and 63 µs; bench_video 31, 22, 20 and 22 µs;
// vod_links 39, 28, 28 and 35 µs.
const exactWidth = 16

// sweepOrder sets order to the order the search sweeps the tiles in:
// widest bits span first — the top row's bits over the lowest level's —
// ties in index order. An insertion sort, inlined: slices.SortStableFunc
// calls its comparator through a func value and took 5× as long.
func sweepOrder(tiles []TileChoice, order []int32) []int32 {
	span := func(i int32) float64 { return tiles[i].Bits[0] - tiles[i].Bits[codec.NumLevels-1] }
	order = order[:0]
	for i := range tiles {
		order = append(order, int32(i))
		j, w := len(order)-1, span(int32(i))
		for ; j > 0 && span(order[j-1]) < w; j-- {
			order[j] = order[j-1]
		}
		order[j] = int32(i)
	}
	return order
}

// AllocatePruned is the paper's enumeration with dominance pruning: it
// sweeps tiles one at a time, extending every non-dominated partial
// assignment by each level and discarding assignments that another
// assignment beats on both total size and total distortion (§6.1). The
// frontier is capped at maxFrontier states by bits-bucket quantization,
// the guard that keeps the worst case polynomial; pass 0 for the default
// cap of 1024, which the bounded search below seldom reaches.
//
// The program is a multiple-choice knapsack, and its LP relaxation —
// the tiles' convex-hull upgrades sorted by efficiency, filled greedily —
// gives, rounded, a feasible incumbent (bound); U, the cost of the
// cheapest plan the sweep knows of, starts as its cost. The same order
// filtered to the tiles swept after the i-th relaxes what a partial
// assignment has left to decide: LPᵢ₊₁(r), the least those tiles cost on
// r bits, is their all-smallest cost less the savings of their upgrades
// taken until r is spent, the last one in part; +Inf where the smallest
// rows do not fit. A partial assignment (bits, cost) after the i-th tile
// is dropped when
//
//	cost + LPᵢ₊₁(budget − bits) > U:
//
// no completion within budget beats the incumbent. LPᵢ₊₁ is convex, and
// its tangent at λ, the efficiency of the first upgrade the whole LP
// cannot fit, is the same cut to first order, one multiply a candidate,
// and goes first; the exact form follows from exactWidth states on:
//
//	cost + λ·bits > U + λ·budget − Σ_{j>i} min_l(Cost_jl + λ·Bits_jl).
//
// Each step that tabulates LPᵢ₊₁ also lowers U. A kept state, completed by
// the longest prefix of that LP order whose bits leave the plan boundSlack
// of the budget inside it, is a plan, of cost the state's plus the tiles'
// all-smallest cost less the prefix's savings; the prefix only shortens
// along the bits-ascending frontier, so one pointer walk finds the
// cheapest (cheapestCompletion), and U becomes its cost where that is
// less. U never falls below the cost of a plan, so no state that leads to
// a cheaper one is cut.
//
// The sweep takes the tiles widest bits span first (sweepOrder). The LP's
// gap is about one upgrade, the largest it has to split; with the large
// upgrades decided first, the LP of the many small tiles still to come
// is tight, and the cut bites from the first steps on.
//
// The bound never falls along a path, nor from a state to one it
// dominates, and the cut only tightens along the sweep. So it removes no
// state that can lead to the answer, and a state that dominates a kept
// state is itself kept: the frontiers are subsequences of the uncut
// search's, and unless the cap thins one the result is the optimum. The
// thresholds carry boundSlack. The result is the cheapest final state; the
// incumbent where thinning lost every state as good; and all-lowest when
// the budget is below even that. A state's bits are summed in sweep order,
// TotalBits' in tile order, and at a budget within a rounding of a plan's
// size the two can fall either side of it. So the last step keeps states
// to boundSlack over the budget, and where the cheapest one is over by
// TotalBits, the call is swept again in tile order, the two sums then one.
//
// A budget that fits the all-smallest plan and not its cheapest step up
// — the all-lowest size every session's first chunk is planned with,
// and every chunk of a starved one — leaves the sweep nothing to decide:
// it would end on the all-smallest plan, so that is returned before the
// tiles are ordered or the LP is set up. That exit and the one below the
// all-smallest size live in Starved, the pass that sizes the plan, which a
// planner can also call before it builds the rows' costs. The step must
// miss the budget by more than boundSlack of it; closer than that, the
// sweep decides as ever. At the other end, a budget
// that fits every tile's cheapest row (cheapestRow) by TotalBits is
// answered with that plan, the optimum, before the LP is set up, where
// those rows are clear of the others by more than the dominance filter's
// tolerance and the rounding of its sums (cheapestFits); then the sweep
// would end on the same plan.
//
// A frontier is strictly bits-ascending and cost-descending, so its
// copy shifted by one level's (bits, cost) is already in order and the
// tile step is a merge of NumLevels ordered lists through the dominance
// filter, not a sort. Two rules make the merged order the sorted one.
// Parents an ulp apart can round to equal shifted bits; such a run is
// represented by its cheapest member (levelCursor.advance). And among
// candidates of identical (bits, cost) — flat tiles have identical
// bottom rungs — the lower level index of the tile being swept wins,
// then the lower index in the previous step's frontier: the free
// upgrade, as AllocateGreedy takes it.
//
// Bits and Cost must be non-negative.
func AllocatePruned(tiles []TileChoice, budget float64, maxFrontier int) Allocation {
	a, _ := SearchPruned(tiles, budget, maxFrontier)
	return a
}

// SearchPruned is AllocatePruned that also reports what the search did;
// the prune experiment and the tests read it. A call answered without a
// sweep — no tiles, a budget below the all-smallest size or one that
// affords no upgrade (both answered by Starved), or one that affords every
// tile's cheapest row — built no frontier and reports zero stats.
func SearchPruned(tiles []TileChoice, budget float64, maxFrontier int) (Allocation, SearchStats) {
	if maxFrontier <= 0 {
		maxFrontier = 1024
	}
	if len(tiles) == 0 {
		return nil, SearchStats{}
	}
	sc := prunedPool.Get().(*prunedScratch)
	a, stats := sc.search(tiles, budget, maxFrontier)
	prunedPool.Put(sc)
	return a, stats
}

// cheapestRow returns the level of a tile's cheapest row: the least cost,
// the fewest bits among rows of that cost, and the lower level among
// identical rows — the row the sweep's dominance filter and its tie
// rules keep.
func cheapestRow(t *TileChoice) codec.Level {
	c := 0
	for l := 1; l < codec.NumLevels; l++ {
		if t.Cost[l] < t.Cost[c] || t.Cost[l] == t.Cost[c] && t.Bits[l] < t.Bits[c] {
			c = l
		}
	}
	return codec.Level(c)
}

// clearOfCheapest reports whether every row of t other than its cheapest
// row c, and not identical to it, is more than costGap costlier or more
// than bitsGap larger: no sum over other rows can round onto, or within
// the dominance filter's tolerance of, a sum over the cheapest rows.
func clearOfCheapest(t *TileChoice, c codec.Level, bitsGap, costGap float64) bool {
	for l := range t.Bits {
		db, dc := t.Bits[l]-t.Bits[c], t.Cost[l]-t.Cost[c]
		if (db != 0 || dc != 0) && dc <= costGap && db <= bitsGap {
			return false
		}
	}
	return true
}

// bound solves the LP relaxation of the call into the scratch tables. It
// leaves the incumbent — the cheaper of two roundings of the LP optimum,
// feasible by the forward sum the final pick uses — in a and returns its
// cost and λ. a comes in as the all-smallest plan and low is its size,
// within budget; bound keeps the plan in sc.small for the sweeps.
func (sc *prunedScratch) bound(tiles []TileChoice, budget, low float64, a Allocation) (incumbent, lambda float64) {
	sc.small = append(sc.small[:0], a...)
	hull := sc.hull[:0]
	for i := range tiles {
		t := &tiles[i]
		// Gift-wrap the hull from the smallest row: each step goes to the
		// row that saves the most cost per extra bit, the lower level on
		// a tie. Rounding must not make a step look more efficient than
		// the one before it, or the run would be out of order.
		for from, last := int(a[i]), math.Inf(1); ; {
			to, eff := -1, 0.0
			for l := codec.NumLevels - 1; l >= 0; l-- {
				db, dc := t.Bits[l]-t.Bits[from], t.Cost[from]-t.Cost[l]
				if db > 0 && dc > 0 && dc/db >= eff {
					to, eff = l, dc/db
				}
			}
			if to < 0 {
				break
			}
			last = min(last, eff)
			db, dc := t.Bits[to]-t.Bits[from], t.Cost[from]-t.Cost[to]
			hull = append(hull, hullUpgrade{eff: last, dBits: db, dCost: dc, tile: int32(i), from: uint8(from), to: uint8(to)})
			from = to
		}
	}
	ups := slices.Grow(sc.ups[:0], len(hull))[:len(hull)]
	lpOrder(ups, hull, &sc.buckets)
	sc.ups, sc.hull = ups, hull

	// The LP optimum takes upgrades in this order until one does not
	// fit, the break upgrade; its efficiency is λ. Two roundings of it
	// are feasible plans. One leaves the break upgrade out and goes on
	// past it, taking whatever still fits. The other forces it in, takes
	// back the least efficient upgrades before it until the plan fits,
	// and then goes on the same way: where one tile's upgrade is a large
	// share of the budget, that is the shape of the optimum.
	forced := append(sc.forced[:0], a...)
	sc.forced = forced
	brk := fillUpgrades(a, ups, low, budget)
	if brk < len(ups) {
		lambda = ups[brk].eff
		spent := low
		for _, u := range ups[:brk+1] {
			spent += u.dBits
			forced[u.tile] = codec.Level(u.to)
		}
		j := brk - 1
		for ; j >= 0 && spent > budget; j-- {
			if u := ups[j]; u.tile != ups[brk].tile {
				spent -= u.dBits
				forced[u.tile] = codec.Level(u.from)
			}
		}
		if spent <= budget {
			fillUpgrades(forced, ups[j+1:], spent, budget)
			if TotalBits(tiles, forced) <= budget && TotalCost(tiles, forced) < TotalCost(tiles, a) {
				copy(a, forced)
			}
		}
	}
	if TotalBits(tiles, a) > budget {
		// The running sum is not the forward sum; an ulp over is over.
		copy(a, sc.small)
	}
	return TotalCost(tiles, a), lambda
}

// lpOrder sorts src, the hull upgrades tile by tile with each tile's run
// most efficient first, into dst most efficient first. The sort is
// stable, so a tie goes to the lower tile, then to its cheaper step. An
// efficiency is positive (a hull step saves cost and spends bits), so its
// bits order as it does: a counting pass on the top 8 bits of each one's
// distance below the largest spreads the upgrades over 256 buckets in
// order, and an insertion pass orders each bucket.
func lpOrder(dst, src []hullUpgrade, count *[257]int32) {
	if len(src) == 0 {
		return
	}
	top, bottom := uint64(0), uint64(math.MaxUint64)
	for i := range src {
		k := math.Float64bits(src[i].eff)
		top, bottom = max(top, k), min(bottom, k)
	}
	shift := max(bits.Len64(top-bottom)-8, 0)
	clear(count[:])
	for i := range src {
		count[(top-math.Float64bits(src[i].eff))>>shift+1]++
	}
	for b := 1; b < len(count); b++ {
		count[b] += count[b-1]
	}
	for i := range src {
		b := (top - math.Float64bits(src[i].eff)) >> shift
		dst[count[b]] = src[i]
		count[b]++
	}
	for i := 1; i < len(dst); i++ {
		if x := dst[i]; x.eff > dst[i-1].eff {
			j := i
			for ; j > 0 && dst[j-1].eff < x.eff; j-- {
				dst[j] = dst[j-1]
			}
			dst[j] = x
		}
	}
}

// suffixLP tabulates the LP relaxation of the tiles swept after the i-th
// for one tile step: their hull upgrades in LP order, summed, as far as
// room bits reach. It reads them from sc.hull, the sweep's list of the
// upgrades of the tiles not yet swept, and drops from it, as it passes
// them, those of the tiles swept since.
func (sc *prunedScratch) suffixLP(i int, room float64) []lpStep {
	lp, ups := append(sc.lp[:0], lpStep{}), sc.hull
	var bits, save float64
	w := 0 // ups[:w] is what was read and is still to come
	for j, u := range ups {
		if int(sc.pos[u.tile]) <= i {
			continue
		}
		ups[w] = u
		w++
		lp[len(lp)-1].eff = u.eff
		bits, save = bits+u.dBits, save+u.dCost
		if lp = append(lp, lpStep{bits: bits, save: save}); bits > room {
			w += copy(ups[w:], ups[j+1:]) // the rest is read at a later step
			break
		}
	}
	sc.hull, sc.lp = ups[:w], lp
	return lp
}

// cheapestCompletion returns the least cost of a plan that a state of f
// completes with a prefix of the LP order lp tabulates, the longest that
// keeps the state's bits within room; base is the all-smallest cost of the
// tiles to come, and +Inf is returned where no state fits even that. f is
// bits-ascending, so the prefix only shortens along it.
func cheapestCompletion(f []paretoState, lp []lpStep, base, room float64) float64 {
	best, k := math.Inf(1), len(lp)-1
	for _, st := range f {
		r := room - st.bits
		for k >= 0 && lp[k].bits > r {
			k--
		}
		if k < 0 {
			break
		}
		best = min(best, st.cost+base-lp[k].save)
	}
	return best
}

// fillUpgrades applies to a, in order, every upgrade that continues its
// tile's chain and fits in what spent leaves of the budget. It returns
// the index of the first one that did not fit, or len(ups).
func fillUpgrades(a Allocation, ups []hullUpgrade, spent, budget float64) int {
	brk := len(ups)
	for j, u := range ups {
		if a[u.tile] != codec.Level(u.from) {
			continue
		}
		if spent+u.dBits <= budget {
			spent += u.dBits
			a[u.tile] = codec.Level(u.to)
		} else if brk == len(ups) {
			brk = j
		}
	}
	return brk
}

// search runs the sweep over at least one tile, leaving every frontier
// in the scratch (none when the budget admits no plan at all or no
// upgrade, Starved's answers, or every tile's cheapest row: the three
// answers that need no search).
func (sc *prunedScratch) search(tiles []TileChoice, budget float64, maxFrontier int) (Allocation, SearchStats) {
	sc.floor.of(tiles)
	return sc.searchFrom(&sc.floor, tiles, budget, maxFrontier)
}

// searchFrom is search with f the floor of tiles' bits.
func (sc *prunedScratch) searchFrom(f *Floor, tiles []TileChoice, budget float64, maxFrontier int) (Allocation, SearchStats) {
	if a := f.Starved(budget, func(i int) codec.Level { return TieRow(&tiles[i], f.Small[i]) }); a != nil {
		// Nothing fits, or no upgrade does: the sweep would end on a.
		return a, SearchStats{}
	}
	a := make(Allocation, len(tiles))
	if sc.cheapestFits(tiles, budget) {
		// Every tile's cheapest row fits: that plan is the optimum, and the
		// sweep would end on it.
		copy(a, sc.forced)
		return a, SearchStats{}
	}
	copy(a, f.Small)
	for i, t := range f.Tied {
		if t {
			a[i] = TieRow(&tiles[i], a[i])
		}
	}
	return a, sc.searched(tiles, budget, f.Low, maxFrontier, a)
}

// cheapestFits reports whether the plan of every tile's cheapest row,
// which it leaves in sc.forced, fits the budget by TotalBits, and is the
// plan a sweep ends on. The sweep ends on it wherever it fits, but for the
// dominance filter's tolerance of 1e-12 and the rounding of its sums: a
// plan with another row within those of the cheapest rows' cost and size
// could take its place. So every other row must be clear of its tile's
// cheapest by more than that: boundSlack of the budget in bits, or 2e-12
// and boundSlack of the plan's cost in cost. Where one is not, the sweep
// decides.
func (sc *prunedScratch) cheapestFits(tiles []TileChoice, budget float64) bool {
	top := slices.Grow(sc.forced[:0], len(tiles))[:len(tiles)]
	sc.forced = top
	var bits, cost float64
	for i := range tiles {
		top[i] = cheapestRow(&tiles[i])
		bits += tiles[i].Bits[top[i]]
		cost += tiles[i].Cost[top[i]]
	}
	if bits > budget {
		return false
	}
	bitsGap, costGap := boundSlack*budget, 2e-12+boundSlack*cost
	for i := range tiles {
		if !clearOfCheapest(&tiles[i], top[i], bitsGap, costGap) {
			return false
		}
	}
	return true
}

// searched is search past its exits: bound, then the sweep, and the sweep
// again in tile order where the first one's plan is over by TotalBits. a
// comes in as the all-smallest plan, of low bits, and leaves as the plan.
func (sc *prunedScratch) searched(tiles []TileChoice, budget, low float64, maxFrontier int, a Allocation) SearchStats {
	incumbent, lambda := sc.bound(tiles, budget, low, a)
	var stats SearchStats
	sc.slab, sc.order = append(sc.slab[:0], paretoState{parent: -1}), sweepOrder(tiles, sc.order)
	plan := sc.sweep(tiles, budget, boundSlack*budget, maxFrontier, incumbent, lambda, &stats)
	if plan != nil && TotalBits(tiles, plan) > budget {
		slices.Sort(sc.order) // over by the caller's sum: sweep again in tile order
		plan = sc.sweep(tiles, budget, 0, maxFrontier, incumbent, lambda, &stats)
	}
	if plan != nil && TotalBits(tiles, plan) <= budget {
		copy(a, plan)
	}
	return stats
}

// sweep runs one sweep over the tiles in sc.order, final states kept to
// over bits over the budget, and returns the plan of the cheapest final
// state, or nil where thinning left none as good as the incumbent. Its
// frontiers follow what the slab holds; starts indexes them.
//
// The cut is against u, the cheapest plan the sweep knows of: at first
// the incumbent, and after every step that tabulates the LP of the tiles
// to come, the cheapest of the plans that step's states make with a
// prefix of that LP order (cheapestCompletion), where one is cheaper.
func (sc *prunedScratch) sweep(tiles []TileChoice, budget, over float64, maxFrontier int, incumbent, lambda float64, stats *SearchStats) Allocation {
	n := len(tiles)
	pos := slices.Grow(sc.pos[:0], n)[:n]
	rest := slices.Grow(sc.rest[:0], n+1)[:n+1]
	rest[n] = suffixMin{}
	for i := n - 1; i >= 0; i-- {
		j := sc.order[i]
		t, small := &tiles[j], sc.small[j]
		minCost := math.Inf(1)
		for l := 0; l < codec.NumLevels; l++ {
			minCost = min(minCost, t.Cost[l]+lambda*t.Bits[l])
		}
		rest[i] = suffixMin{rest[i+1].bits + t.Bits[small], rest[i+1].base + t.Cost[small], rest[i+1].cost + minCost}
		pos[j] = int32(i)
	}
	sc.pos, sc.rest = pos, rest
	sc.hull = append(sc.hull[:0], sc.ups...)
	// slack is boundSlack of the largest sums the cut compares: cost + λ·bits
	// where no tile is left, bounded by incumbent + λ·budget, and the
	// all-smallest cost.
	u := incumbent
	slack := boundSlack * (incumbent + lambda*budget + rest[0].base)

	slab, starts := sc.slab, sc.starts[:0]
	lo, hi := 0, 1     // the current frontier is slab[lo:hi], the root first
	var minVal float64 // min of cost + λ·bits over it, or below
	exact := false     // the frontier has reached exactWidth
	for i := range tiles {
		end := len(slab)
		room := codec.NumLevels * (hi - lo)
		slab = slices.Grow(slab, room)
		next := slab[end : end+room]
		rest := &rest[i+1]
		cut := frontierCut{
			lambda:  lambda,
			maxBits: min(budget+over, budget-rest.bits+boundSlack*budget),
			maxVal:  u + lambda*budget + slack - rest.cost,
			minVal:  minVal,
			room:    budget - rest.bits,
			maxCost: u + slack - rest.base,
		}
		if exact = exact || hi-lo >= exactWidth; exact {
			cut.lp = sc.suffixLP(i, cut.room-slab[lo].bits)
		}
		var m int // candidates the step kept, before thinning
		m, minVal = extendFrontier(next, slab[lo:hi], &tiles[sc.order[i]], &cut)
		kept := thinFrontier(next[:m], maxFrontier)
		if kept < m {
			stats.Thinned++
		}
		stats.States += kept
		slab = slab[:end+kept]
		starts = append(starts, end)
		lo, hi = end, end+kept
		if kept == 0 {
			break // thinning lost every state as good as the incumbent
		}
		if exact {
			// A completion's bits are summed in another order than
			// TotalBits': boundSlack keeps it within the budget by both.
			u = min(u, cheapestCompletion(slab[lo:hi], cut.lp, rest.base, cut.room-boundSlack*budget))
		}
	}
	sc.slab, sc.starts = slab, starts
	// The frontier is cost-descending: its last state is the cheapest.
	if hi == lo || slab[hi-1].cost > incumbent+slack {
		return nil
	}
	plan := sc.forced
	for i, p := n-1, hi-1-lo; i >= 0; i-- {
		st := slab[starts[i]+p]
		plan[sc.order[i]] = codec.Level(st.level)
		p = int(st.parent)
	}
	return plan
}

// frontierCut is what a tile step may keep: states of at most maxBits
// bits, of at most maxVal in cost + λ·bits (the tangent; minVal is a
// lower bound of cost + λ·bits over the parent frontier) and, where lp is
// set, of at most maxCost in cost − S(room − bits), lp tabulating the
// savings S the tiles to come make of the bits a state leaves them.
type frontierCut struct {
	lambda, maxBits, maxVal, minVal float64
	room, maxCost                   float64
	lp                              []lpStep
}

// levelCursor walks the parent frontier shifted by one level's row
// entry: a list already sorted by bits ascending, cost descending.
type levelCursor struct {
	dBits, dCost float64
	next         int         // first unread parent
	step         int         // the lpStep the last candidate reached: bits rise, so it only falls
	head         paretoState // the list's current candidate
}

// advance loads the cursor's next candidate that the cut keeps and that
// can still pass the dominance filter, and reports whether there is one.
//
// Parents whose bits differ by an ulp can round to equal shifted bits.
// Sorted by (bits, cost), only the cheapest of such a run could survive
// the filter, and it is a later parent, not the first: the whole run is
// read at once and represented by its cheapest member, the earliest one
// on equal cost.
func (c *levelCursor) advance(cur []paretoState, cut *frontierCut, bestCost float64) bool {
	for p := c.next; p < len(cur); {
		bits := cur[p].bits + c.dBits
		if bits > cut.maxBits {
			break // so is every later parent
		}
		cost, parent := cur[p].cost+c.dCost, p
		for p++; p < len(cur) && cur[p].bits+c.dBits == bits; p++ {
			if x := cur[p].cost + c.dCost; x < cost {
				cost, parent = x, p
			}
		}
		// bestCost only falls, so a candidate dominated now stays so.
		if cost >= bestCost-1e-12 || cost+cut.lambda*bits > cut.maxVal {
			continue
		}
		if cut.lp != nil {
			r := max(cut.room-bits, 0)
			for cut.lp[c.step].bits > r {
				c.step--
			}
			if s := &cut.lp[c.step]; cost-(s.save+s.eff*(r-s.bits)) > cut.maxCost {
				continue
			}
		}
		c.head.bits, c.head.cost, c.head.parent = bits, cost, int32(parent)
		c.next = p
		return true
	}
	return false
}

// extendFrontier extends every state of the frontier cur by every level
// of tile t and writes the results that the cut keeps and that are not
// dominated — no other has both fewer bits and lower cost — into next,
// bits ascending; it returns their number and their smallest
// cost + λ·bits. next must hold NumLevels·len(cur) states.
//
// It merges the NumLevels shifted copies of cur by (bits, cost); on an
// exact tie the lower level wins. A level whose reduced cost alone takes
// the best parent past the tangent is never started.
func extendFrontier(next, cur []paretoState, t *TileChoice, cut *frontierCut) (int, float64) {
	var (
		cursors [codec.NumLevels]levelCursor
		live    [codec.NumLevels]int // levels of the unexhausted cursors, ascending
		nLive   int
	)
	bestCost := math.Inf(1)
	for l := range cursors {
		if cut.minVal+(t.Cost[l]+cut.lambda*t.Bits[l]) > cut.maxVal {
			continue
		}
		c := &cursors[l]
		c.dBits, c.dCost, c.step = t.Bits[l], t.Cost[l], len(cut.lp)-1
		c.head.level = uint8(l)
		if c.advance(cur, cut, bestCost) {
			live[nLive] = l
			nLive++
		}
	}
	n, minVal := 0, math.Inf(1)
	for nLive > 0 {
		mi, m := 0, &cursors[live[0]]
		for j := 1; j < nLive; j++ {
			c := &cursors[live[j]]
			if c.head.bits < m.head.bits || c.head.bits == m.head.bits && c.head.cost < m.head.cost {
				mi, m = j, c
			}
		}
		if m.head.cost < bestCost-1e-12 {
			next[n] = m.head
			n++
			bestCost = m.head.cost
			minVal = min(minVal, m.head.cost+cut.lambda*m.head.bits)
		}
		if !m.advance(cur, cut, bestCost) {
			copy(live[mi:], live[mi+1:nLive])
			nLive--
		}
	}
	return n, minVal
}

// thinFrontier caps a frontier at limit states in place by keeping the
// first (cheapest in bits) state of each of limit equal-width bits
// buckets, and returns the new length.
func thinFrontier(f []paretoState, limit int) int {
	if len(f) <= limit {
		return len(f)
	}
	lo, hi := f[0].bits, f[len(f)-1].bits
	span := hi - lo
	if span <= 0 {
		return 1
	}
	n := 0
	lastBucket := -1
	for _, st := range f {
		b := int(float64(limit-1) * (st.bits - lo) / span)
		if b != lastBucket {
			f[n] = st
			n++
			lastBucket = b
		}
	}
	return n
}

// AllocateExhaustive brute-forces all level combinations; it is
// exponential and intended only for small instances in tests and the
// pruning benchmark. It returns an error for more than 10 tiles.
func AllocateExhaustive(tiles []TileChoice, budget float64) (Allocation, error) {
	n := len(tiles)
	if n > 10 {
		return nil, fmt.Errorf("abr: exhaustive search infeasible for %d tiles", n)
	}
	best := lowestLevels(n)
	bestCost := math.Inf(1)
	bestFits := false
	a := make(Allocation, n)
	var rec func(i int, bits, cost float64)
	rec = func(i int, bits, cost float64) {
		if bits > budget {
			return
		}
		if i == n {
			if cost < bestCost {
				bestCost = cost
				copy(best, a)
				bestFits = true
			}
			return
		}
		for l := 0; l < codec.NumLevels; l++ {
			a[i] = codec.Level(l)
			rec(i+1, bits+tiles[i].Bits[l], cost+tiles[i].Cost[l])
		}
	}
	rec(0, 0, 0)
	if !bestFits {
		return lowestLevels(n), nil
	}
	return best, nil
}
