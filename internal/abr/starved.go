package abr

import (
	"math"
	"slices"

	"pano/internal/codec"
)

// Floor is what the low end of the budget axis reads of a chunk's rows:
// their bits, and nothing else. Low is the all-smallest plan's size and
// Step the cheapest step up from it, the fewest extra bits any row of any
// tile costs over its tile's smallest (+Inf where no row does). Tile i's
// fewest bits are at level Small[i], the lowest level that has them
// (smallestBits); Tied[i] says another level has them too, and then its
// costs there decide its smallest row (TieRow).
//
// A planner whose rows' bits are fixed — a manifest chunk's — computes the
// floor once (NewFloor) and answers every call of that chunk from it:
// Starved before any cost is built, and AllocatePruned past it without
// scanning the bits again. A floor is read-only once made, so one value
// serves concurrent calls.
type Floor struct {
	Low, Step float64
	Small     Allocation
	Tied      []bool
}

// NewFloor returns the floor of tiles' bits.
func NewFloor(tiles []TileChoice) Floor {
	var f Floor
	f.of(tiles)
	return f
}

// of sets f to the floor of tiles' bits, reusing its slices.
func (f *Floor) of(tiles []TileChoice) {
	n := len(tiles)
	f.Small = slices.Grow(f.Small[:0], n)[:n]
	f.Tied = slices.Grow(f.Tied[:0], n)[:n]
	f.Low, f.Step = 0, math.Inf(1)
	for i := range tiles {
		t := &tiles[i]
		s := smallestBits(t)
		small := t.Bits[s]
		f.Low += small
		for _, b := range t.Bits {
			if d := b - small; d > 0 && d < f.Step {
				f.Step = d
			}
		}
		f.Small[i], f.Tied[i] = s, ties(t, small) > 1
	}
}

// Starved is the one home of the two answers at the low end of the budget
// axis, which no search decides: below the all-smallest plan's size
// nothing fits, and the plan is all-lowest; at or above it, where even the
// cheapest step up from it misses the budget by more than boundSlack of
// the budget, no upgrade fits, and the plan is the all-smallest one —
// every tile at its smallest row (smallestRow). It returns that plan, or
// nil where the budget affords an upgrade and a search decides.
// AllocatePruned answers through it before anything else.
//
// It reads the rows' bits, and a tile's costs only at the levels of its
// smallest size where two or more levels have it, the one place
// smallestRow reads cost. So a caller may pass rows whose costs are not
// built yet, with fill, which builds tiles[i]'s costs at least at the
// levels of its smallest size: Starved calls it for the tiles tied there
// only, and only when it answers that no upgrade fits. fill is nil where
// the rows are whole.
func Starved(tiles []TileChoice, budget float64, fill func(i int)) Allocation {
	sc := prunedPool.Get().(*prunedScratch)
	f := &sc.floor
	f.of(tiles)
	a := f.Starved(budget, func(i int) codec.Level {
		if fill != nil {
			fill(i)
		}
		return TieRow(&tiles[i], f.Small[i])
	})
	prunedPool.Put(sc)
	return a
}

// Starved is the package's Starved answered from the floor, the rows'
// bits read when it was made. Where no upgrade fits, tied(i) gives the
// level of each tile i tied at its smallest size — TieRow over its row,
// its costs built at least at the levels of Small[i]'s bits — and is
// called for those tiles only, in tile order; otherwise it is not called.
func (f *Floor) Starved(budget float64, tied func(i int) codec.Level) Allocation {
	switch {
	case budget < f.Low:
		return lowestLevels(len(f.Small))
	case f.Low+f.Step > budget+boundSlack*budget:
		// A plan whose forward sum rounds under a budget this sum rounds
		// over is inside the slack, and left for the search to find.
		a := make(Allocation, len(f.Small))
		copy(a, f.Small)
		for i, t := range f.Tied {
			if t {
				a[i] = tied(i)
			}
		}
		return a
	}
	return nil
}

// AllocatePruned is the package's AllocatePruned over tiles, whose bits
// f is the floor of: the same plan, without reading the bits for the
// floor again.
func (f *Floor) AllocatePruned(tiles []TileChoice, budget float64, maxFrontier int) Allocation {
	if maxFrontier <= 0 {
		maxFrontier = 1024
	}
	if len(tiles) == 0 {
		return nil
	}
	sc := prunedPool.Get().(*prunedScratch)
	a, _ := sc.searchFrom(f, tiles, budget, maxFrontier)
	prunedPool.Put(sc)
	return a
}

// smallestBits returns the level of the fewest bits, scanning up from the
// lowest level; where others tie it, smallestRow decides among them, and
// where none does, it is smallestRow's answer.
func smallestBits(t *TileChoice) codec.Level {
	s := codec.Level(codec.NumLevels - 1)
	for l := s - 1; l >= 0; l-- {
		if t.Bits[l] < t.Bits[s] {
			s = l
		}
	}
	return s
}

// ties counts the levels of t with bits b.
func ties(t *TileChoice, b float64) int {
	n := 0
	for _, x := range t.Bits {
		if x == b {
			n++
		}
	}
	return n
}

// TieRow returns, among the levels of t with level s's bits, the one a
// plan takes at that size: s, unless a level above it costs no more (flat
// tiles), which is then the free upgrade, and so on up. It reads t's
// costs at those levels only. Where s is smallestBits, it is smallestRow.
func TieRow(t *TileChoice, s codec.Level) codec.Level {
	for l := s - 1; l >= 0; l-- {
		if t.Bits[l] == t.Bits[s] && t.Cost[l] <= t.Cost[s] {
			s = l
		}
	}
	return s
}

// smallestRow returns the level of a tile's row with the fewest bits:
// the lowest level, unless a level above it costs no more at the same
// size (flat tiles), which is then the free upgrade.
func smallestRow(t *TileChoice) codec.Level {
	return TieRow(t, smallestBits(t))
}
