package abr

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"pano/internal/codec"
	"pano/internal/mathx"
)

const lowest = codec.Level(codec.NumLevels - 1)

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// lpOf solves the LP relaxation as the search does before its sweep: the
// incumbent, its cost, λ, and the hull upgrades in LP order. The budget
// must admit the all-smallest plan.
func lpOf(tiles []TileChoice, budget float64) (inc Allocation, cost, lambda float64, ups []hullUpgrade) {
	var sc prunedScratch
	inc = make(Allocation, len(tiles))
	smallestRows(tiles, inc)
	cost, lambda = sc.bound(tiles, budget, TotalBits(tiles, inc), inc)
	return inc, cost, lambda, sc.ups
}

// adoption is a plan a sweep took as its incumbent after a tile step: a
// state of that step's frontier completed by the first prefix upgrades of
// the LP order of the tiles still to come, at the cost the sweep gave it.
type adoption struct {
	step, state, prefix int
	cost                float64
}

// runningIncumbents replays the incumbent of sc's last sweep from its own
// frontiers: u[i] is the U tile step i was cut against, bound's at first,
// and adopted lists the plans that lowered it. From the first step whose
// parent frontier holds exactWidth states on, every state completes with
// the longest prefix of the LP upgrades still to come (sc.ups filtered by
// the sweep's positions) that keeps its bits boundSlack within the budget.
func runningIncumbents(tiles []TileChoice, budget float64, sc *prunedScratch) (u []float64, adopted []adoption) {
	_, cur, _, _ := lpOf(tiles, budget)
	exact := false
	for i := range sc.starts {
		u = append(u, cur)
		width := 1
		if i > 0 {
			width = len(sc.frontier(i - 1))
		}
		if exact = exact || width >= exactWidth; !exact {
			continue
		}
		lp := []lpStep{{}}
		for _, up := range sc.ups {
			if int(sc.pos[up.tile]) > i {
				last := lp[len(lp)-1]
				lp = append(lp, lpStep{bits: last.bits + up.dBits, save: last.save + up.dCost})
			}
		}
		rest := sc.rest[i+1]
		room := budget - rest.bits - boundSlack*budget
		best := adoption{cost: cur}
		for s, st := range sc.frontier(i) {
			k := len(lp) - 1
			for k >= 0 && lp[k].bits > room-st.bits {
				k--
			}
			if k < 0 {
				continue
			}
			if c := st.cost + rest.base - lp[k].save; c < best.cost {
				best = adoption{step: i, state: s, prefix: k, cost: c}
			}
		}
		if best.cost < cur {
			cur = best.cost
			adopted = append(adopted, best)
		}
	}
	return append(u, cur), adopted
}

// The cases the cut creates. Each runs the whole oracle contract at the
// default cap and at a cap that thins, and pins what the unbounded search
// returned for it.
func TestPrunedBoundEdgeCases(t *testing.T) {
	contract := func(t *testing.T, tiles []TileChoice, budget float64) Allocation {
		t.Helper()
		againstReference(t, tiles, budget, 16)
		againstReference(t, tiles, budget, 0)
		return AllocatePruned(tiles, budget, 0)
	}

	// The first chunk of every session is planned with exactly the
	// all-lowest size: nothing but the free upgrades of flat tiles fits.
	// The suffix sums of the feasibility cut add the same sizes in another
	// order and may land an ulp above the forward sum.
	t.Run("budget is the all-lowest size to the ulp", func(t *testing.T) {
		m := manifestFixture(t)
		moved := 0
		for k := 0; k < m.NumChunks(); k++ {
			rows := manifestRows(m, k, func(i int) float64 { return 1 + 0.35*float64(i%7) })
			budget := m.ChunkBits(k, lowest)
			want := lowestLevels(len(rows))
			for i, r := range rows {
				for l := lowest; l > 0 && r.Bits[l-1] == r.Bits[lowest] && r.Cost[l-1] <= r.Cost[l]; l-- {
					want[i] = l - 1
					moved++
				}
			}
			if got := contract(t, rows, budget); !slices.Equal(got, want) {
				t.Errorf("chunk %d at the all-lowest size: levels %v, want %v", k, got, want)
			}
			below := math.Nextafter(budget, 0)
			if got := contract(t, rows, below); !slices.Equal(got, lowestLevels(len(rows))) {
				t.Errorf("chunk %d an ulp below the all-lowest size: levels %v, want all-lowest", k, got)
			}
		}
		if moved == 0 {
			t.Error("no flat tile in the manifest: the exact-fit path only ever saw all-lowest")
		}
	})

	// Everything fits, no upgrade is left out, λ = 0: the cut is on cost
	// alone and the answer is every tile's cheapest row, the smaller one
	// where two cost the same.
	t.Run("budget at and above all-top", func(t *testing.T) {
		rng := mathx.NewRNG(21)
		tiles := randomTiles(rng, 24)
		tiles[5].Cost[1] = 0 // as cheap as level 0, and smaller
		tiles[9].Cost[1], tiles[9].Cost[2] = 0, 0
		top := TotalBits(tiles, make(Allocation, len(tiles)))
		want := make(Allocation, len(tiles))
		want[5], want[9] = 1, 2
		for _, budget := range []float64{top, top * 3} {
			if _, _, lambda, _ := lpOf(tiles, budget); lambda != 0 {
				t.Fatalf("budget %v: λ = %v, want 0", budget, lambda)
			}
			if got := contract(t, tiles, budget); !slices.Equal(got, want) {
				t.Errorf("budget %v: levels %v, want %v", budget, got, want)
			}
		}
	})

	// Bits[3] == Bits[4] at equal cost: the hull starts from level 3, and
	// no plan, the incumbent's included, sits on level 4 of such a tile.
	t.Run("flat tiles", func(t *testing.T) {
		tiles := manifestShapedTiles(30)
		low := TotalBits(tiles, lowestLevels(len(tiles)))
		for _, frac := range []float64{1, 1.01, 1.7, 2.5, 4} {
			plans := []Allocation{contract(t, tiles, low*frac), AllocatePruned(tiles, low*frac, 1)}
			inc, _, _, _ := lpOf(tiles, low*frac)
			for _, a := range append(plans, inc) {
				for i := 4; i < len(tiles); i += 10 {
					if a[i] == lowest {
						t.Errorf("budget %.2f×: flat tile %d on level %d, identical to level %d", frac, i, lowest, lowest-1)
					}
				}
			}
		}
	})

	// A level above the lower convex hull is no LP upgrade, but the
	// optimum can sit on it: the search must reach it through the cut.
	t.Run("levels above the hull", func(t *testing.T) {
		rng := mathx.NewRNG(22)
		tiles := randomTiles(rng, 8)
		for i := range tiles {
			// Level 2 a hair below the chord from level 3 to level 1 in
			// cost saved, level 1 well above the chord from 2 to 0.
			c := &tiles[i]
			c.Cost[2] = c.Cost[3] - 0.9*(c.Cost[3]-c.Cost[1])*(c.Bits[2]-c.Bits[3])/(c.Bits[1]-c.Bits[3])
		}
		low := TotalBits(tiles, lowestLevels(len(tiles)))
		if _, _, _, ups := lpOf(tiles, low); len(ups) == 0 {
			t.Fatal("no hull upgrades")
		} else {
			for _, u := range ups {
				if u.to == 2 {
					t.Fatalf("tile %d: level 2 is on the hull", u.tile)
				}
			}
		}
		offHull := 0
		for _, frac := range []float64{1.3, 1.6, 2, 2.4, 3} {
			budget := low * frac
			got := contract(t, tiles, budget)
			want, err := AllocateExhaustive(tiles, budget)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := TotalCost(tiles, got), TotalCost(tiles, want); g != w {
				t.Errorf("budget %.1f×: cost %v, exhaustive %v", frac, g, w)
			}
			for _, l := range got {
				if l == 2 {
					offHull++
				}
			}
		}
		if offHull == 0 {
			t.Error("no optimum used a level above the hull")
		}
	})

	t.Run("a single tile", func(t *testing.T) {
		tile := randomTiles(mathx.NewRNG(23), 1)
		for l := codec.Level(0); l <= lowest; l++ {
			at := tile[0].Bits[l]
			if got := contract(t, tile, at); got[0] != l {
				t.Errorf("budget of level %d: level %d", l, got[0])
			}
			want := l + 1
			if l == lowest {
				want = lowest // the fallback
			}
			if got := contract(t, tile, math.Nextafter(at, 0)); got[0] != want {
				t.Errorf("an ulp below the budget of level %d: level %d, want %d", l, got[0], want)
			}
		}
	})

	// Budgets that a prefix of the LP's upgrade order fills exactly: the
	// LP optimum is integral, the incumbent is the optimum, the search can
	// find nothing better and must still return the same plan as ever.
	t.Run("the incumbent is the optimum", func(t *testing.T) {
		tiles := randomTiles(mathx.NewRNG(24), 9)
		for i := range tiles {
			for l := range tiles[i].Bits {
				tiles[i].Bits[l] = math.Round(tiles[i].Bits[l]) // sums in any order are exact
			}
		}
		_, _, _, ups := lpOf(tiles, TotalBits(tiles, lowestLevels(len(tiles))))
		for cut := 1; cut <= len(ups); cut += 3 {
			plan := lowestLevels(len(tiles))
			for _, u := range ups[:cut] {
				plan[u.tile] = codec.Level(u.to)
			}
			budget := TotalBits(tiles, plan)
			inc, cost, _, _ := lpOf(tiles, budget)
			if !slices.Equal(inc, plan) {
				t.Fatalf("prefix %d: incumbent %v, want the prefix plan %v", cut, inc, plan)
			}
			got := contract(t, tiles, budget)
			if !slices.Equal(got, plan) || TotalCost(tiles, got) != cost {
				t.Errorf("prefix %d: levels %v cost %v, want the incumbent %v cost %v", cut, got, TotalCost(tiles, got), plan, cost)
			}
			want, err := AllocateExhaustive(tiles, budget)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(want, plan) {
				t.Errorf("prefix %d: exhaustive %v, so the incumbent %v was not the optimum", cut, want, plan)
			}
		}
	})

	// A cap of one keeps a single state per tile, which the cut then
	// drops: nothing reaches the last tile and the answer is the
	// incumbent, far better than what thinning to one state leaves the
	// unbounded search.
	t.Run("thinning loses every state", func(t *testing.T) {
		tiles, budget := oracleInstance(1007, 40, menuContinuous)
		budget = 2.5 * TotalBits(tiles, lowestLevels(len(tiles)))
		got, stats := SearchPruned(tiles, budget, 1)
		inc, cost, _, _ := lpOf(tiles, budget)
		if stats.Thinned == 0 || !slices.Equal(got, inc) {
			t.Fatalf("thinned %d steps, levels %v, want the incumbent %v", stats.Thinned, got, inc)
		}
		if ref := referencePruned(tiles, budget, 1); cost >= TotalCost(tiles, ref.levels) {
			t.Errorf("incumbent cost %v, the reference at the same cap %v", cost, TotalCost(tiles, ref.levels))
		}
		againstReference(t, tiles, budget, 1)
	})

	// The four below are cases of the exact form of the cut, which a sweep
	// puts from its first frontier of exactWidth states on. Smooth synthetic
	// rows never get there, the tangent decides them; a real chunk's
	// heavy-tailed rows do by the third tile.
	vod := vodThinnedInstances(t)[0]

	// Integer sizes, so that sums in any order are exact: the budget leaves
	// the all-smallest prefix of the sweep ending at its from-th tile
	// exactly the bits of the first k upgrades of the tiles swept after it,
	// r on a breakpoint of the step's table and an ulp from it on neither
	// side.
	t.Run("budget exactly on a suffix breakpoint", func(t *testing.T) {
		tiles := slices.Clone(vod.Tiles)
		for i := range tiles {
			for l := range tiles[i].Bits {
				tiles[i].Bits[l] = math.Ceil(tiles[i].Bits[l])
			}
		}
		low, _ := smallestAndStep(tiles)
		_, _, _, ups := lpOf(tiles, low)
		pos := sweepPos(tiles)
		// Sweep positions early, midway and late whose budgets above 1.5×
		// the all-smallest size the exact form decides, each of them: swept
		// widest first, the suffixes after positions 0, 1, 3–5, 7–9, 11, 12
		// and 14 each have one or two the tangent alone decides.
		wide := 0
		for _, from := range []int{2, 13, 27} {
			budget, k := low, 0
			for _, u := range ups {
				if pos[u.tile] <= from {
					continue
				}
				budget += u.dBits
				if k++; k%5 == 1 {
					contract(t, tiles, budget)
					if budget > 1.5*low {
						wide++
						if !exactFormRan(tiles, budget) {
							t.Errorf("suffix after swept tile %d, %d upgrades: the frontier never reached %d states", from, k, exactWidth)
						}
					}
				}
			}
			if k == 0 {
				t.Fatalf("no upgrades after swept tile %d", from)
			}
		}
		if wide < 15 {
			t.Errorf("%d budgets above 1.5× the all-smallest size, want at least 15", wide)
		}
	})

	// A tile step every candidate of which has spent what the tiles to come
	// could have upgraded with, some by a rounding more: r clamps to 0, every
	// cursor's pointer walks the whole table down, and what is left of the
	// exact form is cost ≤ maxCost. A frontier differs in bits, so no sweep
	// has such a step; it is made by hand from the 12th frontier a sweep
	// cut against bound's U alone keeps: the reference's states that
	// cost + LP of the tiles to come (lpDual) leaves under U.
	t.Run("r = 0 for every state", func(t *testing.T) {
		var sc prunedScratch
		sc.search(vod.Tiles, vod.Budget, uncapped)
		rows, _ := sweptRows(vod.Tiles)
		_, U, _, _ := lpOf(vod.Tiles, vod.Budget)
		var cur []paretoState
		for _, st := range referencePruned(vod.Tiles, vod.Budget, uncapped).frontiers[11] {
			if st.cost+lpDual(rows[12:], vod.Budget-st.bits) <= U {
				cur = append(cur, paretoState{bits: st.bits, cost: st.cost, parent: int32(st.parent), level: uint8(st.level)})
			}
		}
		tile := &vod.Tiles[sc.order[12]]
		sc.hull = append(sc.hull[:0], sc.ups...)
		lp := slices.Clone(sc.suffixLP(12, math.Inf(1)))
		if len(cur) < exactWidth || len(lp) < 10 {
			t.Fatalf("parent frontier of %d states, table of %d steps: nothing to walk", len(cur), len(lp))
		}
		cut := frontierCut{
			maxBits: math.Inf(1), maxVal: math.Inf(1),
			room:    cur[0].bits + tile.Bits[lowest], // the smallest candidate's bits
			maxCost: cur[len(cur)/2].cost + tile.Cost[2],
			lp:      lp,
		}
		next := make([]paretoState, codec.NumLevels*len(cur))
		n, _ := extendFrontier(next, cur, tile, &cut)
		var want []refState
		for pi, st := range cur {
			for l := 0; l < codec.NumLevels; l++ {
				if c := st.cost + tile.Cost[l]; c <= cut.maxCost {
					want = append(want, refState{bits: st.bits + tile.Bits[l], cost: c, parent: pi, level: codec.Level(l)})
				}
			}
		}
		want = referencePrune(want, uncapped, new(refResult))
		if n < exactWidth || n != len(want) || notIn(next[:n], want) >= 0 {
			t.Fatalf("%d states kept, want the %d undominated candidates of cost ≤ %v", n, len(want), cut.maxCost)
		}
	})

	// After the last tile nothing is to come: the table is the single zero
	// step and the cut is cost ≤ U, the U the sweep holds by then. On these
	// rows that is the optimum's cost, the plans of the steps before it
	// having found the optimum, so the last frontier is that one state.
	t.Run("last tile (empty suffix)", func(t *testing.T) {
		var sc prunedScratch
		sc.search(vod.Tiles, vod.Budget, uncapped)
		if len(sc.lp) != 1 || sc.lp[0] != (lpStep{}) {
			t.Fatalf("the last step's table is %v, want the zero step alone", sc.lp)
		}
		u, _ := runningIncumbents(vod.Tiles, vod.Budget, &sc)
		U := u[len(vod.Tiles)-1]
		last := sc.frontier(len(vod.Tiles) - 1)
		for _, st := range last {
			if st.cost > U*(1+2*boundSlack) {
				t.Errorf("final state (%v, %v) costs more than the incumbent %v", st.bits, st.cost, U)
			}
		}
		ref, within := referencePruned(vod.Tiles, vod.Budget, uncapped), 0
		for _, st := range ref.frontiers[len(vod.Tiles)-1] {
			if st.bits <= vod.Budget && st.cost <= U*(1+2*boundSlack) {
				within++
			}
		}
		if within == 0 || within != len(last) {
			t.Errorf("%d final states, the reference has %d within budget and at most the incumbent %v", len(last), within, U)
		}
		contract(t, vod.Tiles, vod.Budget)
	})

	// One tile's step up is a fifth of the budget and the first the whole
	// LP cannot fit, so the relaxation's gap is that one tile's: where the
	// tangent kept frontiers over the cap. The sweep takes that tile among
	// its first two, and at what the all-smallest prefix leaves, the LP of
	// every suffix after the first step breaks on an upgrade of under a
	// tenth of the budget, if on any.
	t.Run("one tile owns the break upgrade", func(t *testing.T) {
		low, _ := smallestAndStep(vod.Tiles)
		_, _, _, ups := lpOf(vod.Tiles, vod.Budget)
		pos := sweepPos(vod.Tiles)
		for from := -1; from < 10; from++ {
			spent := low
			for _, u := range ups {
				if pos[u.tile] <= from {
					continue
				}
				if spent += u.dBits; spent > vod.Budget {
					if from < 0 && (u.dBits < vod.Budget/6 || pos[u.tile] > 1) {
						t.Fatalf("the break upgrade is tile %d's, %v bits, swept at %d; want a sixth of the budget among the first two", u.tile, u.dBits, pos[u.tile])
					}
					if from >= 0 && u.dBits >= vod.Budget/10 {
						t.Fatalf("suffix after swept tile %d: the break upgrade is tile %d's, %v bits; want under a tenth of the budget", from, u.tile, u.dBits)
					}
					break
				}
			}
		}
		contract(t, vod.Tiles, vod.Budget)
		if !exactFormRan(vod.Tiles, vod.Budget) {
			t.Errorf("the frontier never reached %d states", exactWidth)
		}
	})
}

// exactFormRan reports whether a search at the default cap reached a
// frontier of exactWidth states, and so built a suffix table.
func exactFormRan(tiles []TileChoice, budget float64) bool {
	var sc prunedScratch
	sc.search(tiles, budget, 1024)
	return len(sc.lp) > 0
}

// lpDual is the optimum of the LP relaxation of tiles on at most bits
// bits, by duality: the maximum over λ ≥ 0 of Σ_j min_l(Cost_jl + λ·Bits_jl)
// − λ·bits, attained at 0 or at the slope between two rows of one tile.
// Nothing of the hull, the sort or the tables of the search is in it. +Inf
// where not even the smallest rows fit.
func lpDual(tiles []TileChoice, bits float64) float64 {
	low, lambdas := 0.0, []float64{0}
	for _, t := range tiles {
		low += slices.Min(t.Bits[:])
		for a := 0; a < codec.NumLevels; a++ {
			for b := 0; b < a; b++ {
				if db, dc := t.Bits[b]-t.Bits[a], t.Cost[a]-t.Cost[b]; db != 0 && dc/db > 0 {
					lambdas = append(lambdas, dc/db)
				}
			}
		}
	}
	if bits < low {
		return math.Inf(1)
	}
	best := math.Inf(-1)
	for _, lambda := range lambdas {
		g := -lambda * bits
		for _, t := range tiles {
			m := math.Inf(1)
			for l := range t.Bits {
				m = min(m, t.Cost[l]+lambda*t.Bits[l])
			}
			g += m
		}
		best = max(best, g)
	}
	return best
}

// The cut is the suffix LP, no more and no less. From the first tile step
// on whose parent frontier holds exactWidth states, a state of the exact
// reference frontier is in the search's when cost + LPᵢ₊₁(budget − bits) is
// under the incumbent in force at that step (runningIncumbents) and out of
// it when over — LPᵢ₊₁ by duality, with a margin of 1e-6 of the sums
// either side for the two roundings. Every state the search kept is
// checked, and every fifth it dropped.
func TestPrunedCutIsTheSuffixLP(t *testing.T) {
	kept, dropped, instances := 0, 0, 0
	check := func(tiles []TileChoice, budget float64) {
		t.Helper()
		var sc prunedScratch
		sc.search(tiles, budget, uncapped)
		if len(sc.starts) == 0 {
			return // no sweep: nothing fits, or no upgrade does
		}
		instances++
		ref := referencePruned(tiles, budget, uncapped)
		rows, _ := sweptRows(tiles)
		inc, U, _, _ := lpOf(tiles, budget)
		smallestRows(tiles, inc)
		tol := 1e-6 * (U + TotalCost(tiles, inc))
		running, _ := runningIncumbents(tiles, budget, &sc)
		exact := false
		for i := range sc.starts {
			width := 1
			if i > 0 {
				width = len(sc.frontier(i - 1))
			}
			if exact = exact || width >= exactWidth; !exact {
				continue
			}
			U := running[i]
			ours, j := sc.frontier(i), 0
			for s, st := range ref.frontiers[i] {
				for j < len(ours) && ours[j].bits < st.bits {
					j++
				}
				in := j < len(ours) && ours[j].bits == st.bits && ours[j].cost == st.cost
				if !in && s%5 != 0 {
					continue
				}
				v := st.cost + lpDual(rows[i+1:], budget-st.bits)
				if in && v > U+tol {
					t.Fatalf("n=%d budget=%v tile %d: kept (%v, %v), bounded by %v over the incumbent %v", len(tiles), budget, i, st.bits, st.cost, v, U)
				}
				if !in && v < U-tol {
					t.Fatalf("n=%d budget=%v tile %d: dropped (%v, %v), bounded by %v under the incumbent %v", len(tiles), budget, i, st.bits, st.cost, v, U)
				}
				if in {
					kept++
				} else {
					dropped++
				}
			}
		}
	}
	for s := 0; s < 36; s++ {
		check(oracleInstance(uint64(1100+s), 10+(7*s)%39, s%numMenus))
	}
	m := manifestFixture(t)
	for k := 0; k < m.NumChunks(); k++ {
		rows := manifestRows(m, k, func(i int) float64 { return 1 + 0.35*float64(i%7) })
		for _, frac := range []float64{0.18, 0.30} {
			check(rows, frac*m.ChunkBits(k, 0))
		}
	}
	for _, in := range vodThinnedInstances(t) {
		check(in.Tiles, in.Budget)
	}
	t.Logf("%d instances: %d kept states under the bound, %d dropped states over it", instances, kept, dropped)
	if instances < 30 || kept < 1000 || dropped < 1000 {
		t.Errorf("%d instances, %d kept and %d dropped states checked: too few to mean anything", instances, kept, dropped)
	}
}

// Every incumbent a sweep adopts is a plan: the state's path, then the LP
// prefix over the tiles still to come, from their smallest rows. Summed as
// TotalBits sums it, the plan is within the budget, and its TotalCost is
// the U the sweep took, to the rounding of sums in another order.
func TestPrunedAdoptedIncumbentsArePlans(t *testing.T) {
	adoptions, instances := 0, 0
	check := func(tiles []TileChoice, budget float64) {
		t.Helper()
		var sc prunedScratch
		sc.search(tiles, budget, uncapped)
		_, adopted := runningIncumbents(tiles, budget, &sc)
		if len(adopted) > 0 {
			instances++
		}
		for _, ad := range adopted {
			plan := make(Allocation, len(tiles))
			smallestRows(tiles, plan)
			for i, p := ad.step, ad.state; i >= 0; i-- {
				st := sc.frontier(i)[p]
				plan[sc.order[i]] = codec.Level(st.level)
				p = int(st.parent)
			}
			k := 0
			for _, u := range sc.ups {
				if int(sc.pos[u.tile]) > ad.step && k < ad.prefix {
					plan[u.tile] = codec.Level(u.to)
					k++
				}
			}
			if b := TotalBits(tiles, plan); b > budget {
				t.Fatalf("n=%d budget=%v step %d: adopted plan %v of %v bits is over budget", len(tiles), budget, ad.step, plan, b)
			}
			if c := TotalCost(tiles, plan); math.Abs(c-ad.cost) > costTolerance(c) {
				t.Fatalf("n=%d budget=%v step %d: adopted U %v, its plan %v costs %v", len(tiles), budget, ad.step, ad.cost, plan, c)
			}
			adoptions++
		}
	}
	for s := 0; s < 36; s++ {
		check(oracleInstance(uint64(1100+s), 10+(7*s)%39, s%numMenus))
	}
	m := manifestFixture(t)
	for k := 0; k < m.NumChunks(); k++ {
		rows := manifestRows(m, k, func(i int) float64 { return 1 + 0.35*float64(i%7) })
		for _, frac := range []float64{0.18, 0.30} {
			check(rows, frac*m.ChunkBits(k, 0))
		}
	}
	for _, in := range vodThinnedInstances(t) {
		check(in.Tiles, in.Budget)
	}
	t.Logf("%d adopted incumbents over %d instances", adoptions, instances)
	if instances < 10 || adoptions < 30 {
		t.Errorf("%d adopted incumbents over %d instances: too few to mean anything", adoptions, instances)
	}
}

// budgetAxisBracket brackets the optimum of the program with a textbook
// knapsack DP over the budget axis in cells integer units — nothing of
// the frontier search in it, the tile rate-adaptation DP of Ghosh et al.
// (arXiv 1704.08215). With every size rounded down the program is a
// relaxation and its optimum a lower bound; rounded up it is a
// restriction and its optimum an upper bound, +Inf when nothing fits.
func budgetAxisBracket(tiles []TileChoice, budget float64, cells int) (lo, hi float64) {
	unit := budget / float64(cells)
	solve := func(round func(float64) float64) float64 {
		best := make([]float64, cells+1) // best[c]: cheapest prefix of at most c units
		next := make([]float64, cells+1)
		for i := range tiles {
			var w [codec.NumLevels]int
			for l := range w {
				w[l] = int(round(tiles[i].Bits[l] / unit))
			}
			for c := range next {
				next[c] = math.Inf(1)
				for l, wl := range w {
					if wl <= c {
						next[c] = math.Min(next[c], best[c-wl]+tiles[i].Cost[l])
					}
				}
			}
			best, next = next, best
		}
		return best[cells]
	}
	// The guard factors keep a quotient that is an integer but for its
	// last bit on the safe side of the rounding.
	lo = solve(func(x float64) float64 { return math.Floor(x * (1 - 1e-12)) })
	hi = solve(func(x float64) float64 { return math.Ceil(x * (1 + 1e-12)) })
	return lo, hi
}

// The search's cost lies inside the independent bracket, and the bracket
// is narrow enough to mean something: the greedy allocator falls out of
// it on a good share of the same instances.
func TestPrunedInsideBudgetAxisBracket(t *testing.T) {
	stride := 1
	if testing.Short() {
		stride = 4 // the DPs are seconds of plain arithmetic, ×10 under -race
	}
	var widths mathx.Stats
	greedyOut, n := 0, 0
	check := func(tiles []TileChoice, budget float64) {
		t.Helper()
		if budget < TotalBits(tiles, lowestLevels(len(tiles))) {
			return
		}
		got, stats := SearchPruned(tiles, budget, 0)
		cost := TotalCost(tiles, got)
		lo, hi := budgetAxisBracket(tiles, budget, 4096)
		if cost < lo-costTolerance(lo) {
			t.Fatalf("n=%d budget=%v: cost %v below the relaxation's optimum %v", len(tiles), budget, cost, lo)
		}
		if stats.Thinned == 0 && cost > hi+costTolerance(hi) {
			t.Fatalf("n=%d budget=%v: unthinned cost %v above the restriction's optimum %v", len(tiles), budget, cost, hi)
		}
		if math.IsInf(hi, 1) || hi == 0 {
			return
		}
		widths.Add((hi - lo) / hi)
		n++
		if TotalCost(tiles, AllocateGreedy(tiles, budget)) > hi+costTolerance(hi) {
			greedyOut++
		}
	}
	for s := 0; s < 540; s += stride {
		check(oracleInstance(uint64(1000+s), 1+s%72, s%numMenus))
	}
	m := manifestFixture(t)
	for k := 0; k < m.NumChunks(); k++ {
		rows := manifestRows(m, k, func(i int) float64 { return 1 + 0.35*float64(i%7) })
		for l := 0; l < codec.NumLevels; l += stride {
			for _, frac := range []float64{0.9, 1, 1.1} {
				check(rows, frac*m.ChunkBits(k, codec.Level(l)))
			}
		}
	}
	t.Logf("%d brackets: mean relative width %.4f, max %.4f; greedy above the bracket on %d", n, widths.Mean(), widths.Max(), greedyOut)
	if n < 100/stride || widths.Mean() > 0.05 {
		t.Errorf("%d finite brackets of mean relative width %v: too few or too wide to bracket anything", n, widths.Mean())
	}
	if greedyOut*10 < n {
		t.Errorf("greedy is above the bracket on %d of %d instances only: the bracket has no teeth", greedyOut, n)
	}
}

// Warm, a call allocates its result and nothing else: the LP tables live
// in the pooled scratch with the frontiers, and the two answers that need
// no search — the fallback at 0.5× and the nothing-affordable plan at 1× —
// are written into the result itself. sync.Pool drops a quarter of its
// Puts under the race detector, so the pin reads there whatever the pool
// lost.
func TestAllocatePrunedAllocatesOnlyItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	for _, n := range []int{1, 30, 72} {
		tiles := manifestShapedTiles(n)
		low := TotalBits(tiles, lowestLevels(n))
		if !nothingAffordable(tiles, low) {
			t.Fatalf("%d tiles: the all-lowest size affords an upgrade; the guarded call went unpinned", n)
		}
		for _, frac := range []float64{0.5, 1, 2.5, 100} {
			AllocatePruned(tiles, low*frac, 0) // warm the scratch
			if allocs := testing.AllocsPerRun(50, func() { sinkAllocation = AllocatePruned(tiles, low*frac, 0) }); allocs != 1 {
				t.Errorf("%d tiles at %v× the all-lowest size: %v allocs per call, want 1", n, frac, allocs)
			}
		}
	}
}

// One allocator serves every goroutine of a process (a Planner is shared
// by all swarm workers): concurrent calls return the serial answers —
// under -race this is what shows the tables are per call, not shared —
// and, the pools warm, still allocate about one object per call.
func TestAllocatePrunedSharedAcrossGoroutines(t *testing.T) {
	const workers, calls = 8, 60
	type job struct {
		tiles  []TileChoice
		budget float64
		cap    int
	}
	jobs := make([]job, workers*calls)
	want := make([]Allocation, len(jobs))
	for j := range jobs {
		tiles, budget := oracleInstance(uint64(5000+j%40), 1+(7*j)%72, j%numMenus)
		jobs[j] = job{tiles, budget, oracleCaps[j%len(oracleCaps)]}
		want[j] = AllocatePruned(tiles, budget, jobs[j].cap)
	}
	got := make([]Allocation, len(jobs))
	round := func() (mallocs uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for j := w; j < len(jobs); j += workers {
					got[j] = AllocatePruned(jobs[j].tiles, jobs[j].budget, jobs[j].cap)
				}
			}(w)
		}
		wg.Wait()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	round() // every P's scratch grows to the largest instance once
	mallocs := round()
	for j := range jobs {
		if !slices.Equal(got[j], want[j]) {
			t.Fatalf("job %d (n=%d): concurrent levels %v, serial %v", j, len(jobs[j].tiles), got[j], want[j])
		}
	}
	// The results, eight goroutines, and whatever a garbage collection
	// mid-round makes a pool rebuild. Tables built per call would be four
	// more objects per call, ≈2 000.
	if !raceEnabled && mallocs > uint64(len(jobs))+150 {
		t.Errorf("%d mallocs over %d concurrent calls, want about one per call", mallocs, len(jobs))
	}
}
