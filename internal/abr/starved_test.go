package abr

import (
	"math"
	"slices"
	"testing"

	"pano/internal/codec"
	"pano/internal/mathx"
)

// starvedRows is randomTiles with every third tile tied at its smallest
// size over its bottom rungs from a level on, in one of three ways: the
// tied levels' costs rising with the level index (the lower level wins
// the tie), falling (the lowest level keeps it) or equal (the lower level
// wins); every fifth tile's bottom rungs are identical rows instead.
func starvedRows(seed uint64, n int) []TileChoice {
	rng := mathx.NewRNG(seed)
	tiles := randomTiles(rng, n)
	for i := range tiles {
		t, from := &tiles[i], 2+i%3
		switch {
		case i%5 == 0:
			flatBottom(t, from)
		case i%3 == 0:
			for l := from + 1; l < codec.NumLevels; l++ {
				t.Bits[l] = t.Bits[from]
				switch i / 3 % 3 {
				case 1:
					t.Cost[l] = t.Cost[from] / float64(l-from+1)
				case 2:
					t.Cost[l] = t.Cost[from]
				}
			}
		}
	}
	return tiles
}

// Starved is the search's exit at the low end of the budget axis, and its
// answer is the search's. Over random rows with tiles tied at their
// smallest size, on budgets below, at and inside the all-smallest plan's
// size, at low + minUp and boundSlack of the budget either side of it, and
// an ulp either side of the largest budget no upgrade fits: it answers
// exactly where the restated condition says, with SearchPruned's plan,
// which the reference sweep holds to (againstReference), each tile at the
// level the restated tie rule picks; and on rows whose costs are not
// built — NaN until fill builds them — it gives the same answer, building
// only the tiles tied at their smallest size, and none where it does not
// answer that no upgrade fits.
func TestStarvedIsTheSearchsExit(t *testing.T) {
	var answered, tiedFills, calls int
	for s := 0; s < 120; s++ {
		n := 1 + (7*s)%40
		tiles := starvedRows(uint64(9100+s), n)
		low, minUp := smallestAndStep(tiles)
		edge := (low + minUp) / (1 + boundSlack)
		for low+minUp > edge+boundSlack*edge {
			edge = math.Nextafter(edge, math.Inf(1))
		}
		for !(low+minUp > edge+boundSlack*edge) {
			edge = math.Nextafter(edge, 0)
		}
		step := low + minUp
		budgets := []float64{
			math.Nextafter(low, 0), low, low + 0.5*minUp,
			math.Nextafter(edge, 0), edge, math.Nextafter(edge, math.Inf(1)),
			step - boundSlack*step, step, step + boundSlack*step,
			step + minUp,
		}
		for _, budget := range budgets {
			calls++
			want, _ := SearchPruned(tiles, budget, 0)
			againstReference(t, tiles, budget, 0)
			got := Starved(tiles, budget, nil)
			exit := budget < low || nothingAffordable(tiles, budget)
			if (got != nil) != exit {
				t.Fatalf("seed %d budget %v (low %v, step %v): answered %v, the exit's condition says %v", s, budget, low, step, got != nil, exit)
			}
			if got == nil {
				continue
			}
			answered++
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d budget %v: Starved %v, SearchPruned %v", s, budget, got, want)
			}
			if budget >= low {
				// The free upgrade, restated: among a tile's levels of its
				// fewest bits, the least cost, then the lower level.
				for i, ti := range tiles {
					small, at := slices.Min(ti.Bits[:]), codec.Level(-1)
					for l, b := range ti.Bits {
						if b == small && (at < 0 || ti.Cost[l] < ti.Cost[at]) {
							at = codec.Level(l)
						}
					}
					if got[i] != at {
						t.Fatalf("seed %d budget %v: tile %d at level %d, its smallest rows %v at %v say %d", s, budget, i, got[i], ti.Bits, ti.Cost, at)
					}
				}
			}

			bare := slices.Clone(tiles)
			for i := range bare {
				for l := range bare[i].Cost {
					bare[i].Cost[l] = math.NaN()
				}
			}
			// fill builds what it must and no more: the costs at the
			// tile's smallest size.
			built := map[int]bool{}
			lazy := Starved(bare, budget, func(i int) {
				if built[i] {
					t.Fatalf("seed %d: tile %d built twice", s, i)
				}
				built[i] = true
				small := slices.Min(tiles[i].Bits[:])
				for l, b := range tiles[i].Bits {
					if b == small {
						bare[i].Cost[l] = tiles[i].Cost[l]
					}
				}
			})
			if !slices.Equal(lazy, got) {
				t.Fatalf("seed %d budget %v: on rows built on demand %v, on whole rows %v", s, budget, lazy, got)
			}
			if budget < low && len(built) > 0 {
				t.Fatalf("seed %d budget %v: nothing fits, and %d tiles were built", s, budget, len(built))
			}
			for i := range tiles {
				tied := ties(&tiles[i], slices.Min(tiles[i].Bits[:])) > 1
				if built[i] != (tied && budget >= low) {
					t.Fatalf("seed %d budget %v: tile %d built %v, tied at its smallest size %v", s, budget, i, built[i], tied)
				}
				if built[i] {
					tiedFills++
				}
			}
		}
	}
	t.Logf("%d of %d calls answered by Starved, %d tied tiles built on demand", answered, calls, tiedFills)
	if answered == 0 || tiedFills == 0 {
		t.Error("the instances never reach the exit, or never a tie at it")
	}
}
