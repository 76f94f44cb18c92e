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
// enumeration (exact Pareto-frontier dynamic programming over tiles), a
// fast greedy marginal-utility allocator, and an exhaustive search for
// small instances (ground truth in tests and the pruning benchmark).
//
// The pruned enumeration is what a session spends its compute on. Its
// tile step is a merge, not a sort, and all frontiers of a call live in
// one pooled slab, so a call allocates only its result; AllocatePruned
// documents the ordering rules that make the merge the same search.
package abr

import (
	"fmt"
	"math"
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
func AllocateGreedy(tiles []TileChoice, budget float64) Allocation {
	a := lowestLevels(len(tiles))
	spent := TotalBits(tiles, a)
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
			db := tiles[i].Bits[l-1] - tiles[i].Bits[l]
			if spent+db > budget {
				continue
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

// prunedScratch is the working memory of one AllocatePruned call: every
// tile's frontier back to back in one slab (the empty assignment first),
// with starts[i] the slab offset of tile i's frontier.
type prunedScratch struct {
	slab   []paretoState
	starts []int
}

// prunedPool recycles scratch across calls: planners are shared between
// goroutines (one Planner serves every swarm worker), so the scratch
// cannot live on the caller's value.
var prunedPool = sync.Pool{New: func() any { return new(prunedScratch) }}

// AllocatePruned is the paper's enumeration with dominance pruning: it
// sweeps tiles one at a time, extending every non-dominated partial
// assignment by each level and discarding assignments that another
// assignment beats on both total size and total distortion (§6.1). The
// frontier is capped at maxFrontier states by bits-bucket quantization,
// which keeps the search polynomial while staying within a hair of the
// exact optimum (≤0.5% extra distortion at the default cap on
// 30–72-tile instances); pass 0 for the default cap.
//
// A frontier is strictly bits-ascending and cost-descending, so its
// copy shifted by one level's (bits, cost) is already in order and the
// tile step is a merge of NumLevels ordered lists through the dominance
// filter, not a sort. Two rules make the merged order the sorted one.
// Parents an ulp apart can round to equal shifted bits; such a run is
// represented by its cheapest member (levelCursor.advance). And among
// candidates of identical (bits, cost) — flat tiles have identical
// bottom rungs — the lower level index wins, then the lower parent
// index: the free upgrade, as AllocateGreedy takes it.
func AllocatePruned(tiles []TileChoice, budget float64, maxFrontier int) Allocation {
	if maxFrontier <= 0 {
		maxFrontier = 1024
	}
	if len(tiles) == 0 {
		return nil
	}
	sc := prunedPool.Get().(*prunedScratch)
	a := sc.search(tiles, budget, maxFrontier)
	prunedPool.Put(sc)
	return a
}

// search runs the sweep over at least one tile, leaving every frontier
// in the scratch.
func (sc *prunedScratch) search(tiles []TileChoice, budget float64, maxFrontier int) Allocation {
	slab := append(sc.slab[:0], paretoState{parent: -1})
	starts := sc.starts[:0]
	lo := 0 // the current frontier is slab[lo:]
	for i := range tiles {
		hi := len(slab)
		room := codec.NumLevels * (hi - lo)
		slab = slices.Grow(slab, room)
		next := slab[hi : hi+room]
		next = next[:extendFrontier(next, slab[lo:hi], &tiles[i], budget)]
		slab = slab[:hi+thinFrontier(next, maxFrontier)]
		starts = append(starts, hi)
		lo = hi
	}
	sc.slab, sc.starts = slab, starts
	// Pick the best final state within budget; if none fits (budget
	// below even the all-lowest size), fall back to all-lowest.
	a := lowestLevels(len(tiles))
	bestIdx := -1
	bestCost := math.Inf(1)
	for i, st := range slab[lo:] {
		if st.bits <= budget && st.cost < bestCost {
			bestCost = st.cost
			bestIdx = i
		}
	}
	if bestIdx >= 0 {
		for i := len(tiles) - 1; i >= 0; i-- {
			st := slab[starts[i]+bestIdx]
			a[i] = codec.Level(st.level)
			bestIdx = int(st.parent)
		}
	}
	return a
}

// levelCursor walks the parent frontier shifted by one level's row
// entry: a list already sorted by bits ascending, cost descending.
type levelCursor struct {
	dBits, dCost float64
	maxBits      float64     // candidates above it are not viable
	next         int         // first unread parent
	head         paretoState // the list's current candidate
}

// advance loads the cursor's next candidate that can still pass the
// dominance filter, and reports whether there is one.
//
// Parents whose bits differ by an ulp can round to equal shifted bits.
// Sorted by (bits, cost), only the cheapest of such a run could survive
// the filter, and it is a later parent, not the first: the whole run is
// read at once and represented by its cheapest member, the earliest one
// on equal cost.
func (c *levelCursor) advance(cur []paretoState, bestCost float64) bool {
	for p := c.next; p < len(cur); {
		bits := cur[p].bits + c.dBits
		if bits > c.maxBits {
			break // so is every later parent
		}
		cost, parent := cur[p].cost+c.dCost, p
		for p++; p < len(cur) && cur[p].bits+c.dBits == bits; p++ {
			if x := cur[p].cost + c.dCost; x < cost {
				cost, parent = x, p
			}
		}
		// bestCost only falls, so a candidate dominated now stays so.
		if cost < bestCost-1e-12 {
			c.head.bits, c.head.cost, c.head.parent = bits, cost, int32(parent)
			c.next = p
			return true
		}
	}
	return false
}

// extendFrontier extends every state of the frontier cur by every level
// of tile t and writes the non-dominated results — no other has both
// fewer bits and lower cost — into next, bits ascending; it returns
// their number. next must hold NumLevels·len(cur) states.
//
// It merges the NumLevels shifted copies of cur by (bits, cost); on an
// exact tie the lower level wins. An assignment over budget stays
// viable only through the lowest level, the fallback path.
func extendFrontier(next, cur []paretoState, t *TileChoice, budget float64) int {
	var (
		cursors [codec.NumLevels]levelCursor
		live    [codec.NumLevels]int // levels of the unexhausted cursors, ascending
		nLive   int
	)
	bestCost := math.Inf(1)
	for l := range cursors {
		c := &cursors[l]
		c.dBits, c.dCost, c.maxBits = t.Bits[l], t.Cost[l], budget
		if l == codec.NumLevels-1 {
			c.maxBits = math.Inf(1)
		}
		c.head.level = uint8(l)
		if c.advance(cur, bestCost) {
			live[nLive] = l
			nLive++
		}
	}
	n := 0
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
		}
		if !m.advance(cur, bestCost) {
			copy(live[mi:], live[mi+1:nLive])
			nLive--
		}
	}
	return n
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
