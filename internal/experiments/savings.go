package experiments

import (
	"context"
	"fmt"
	"sync/atomic"

	"pano/internal/abr"
	"pano/internal/codec"
	"pano/internal/manifest"
	"pano/internal/mathx"
	"pano/internal/player"
	"pano/internal/provider"
	"pano/internal/scene"
	"pano/internal/sim"
	"pano/internal/swarm"
)

// isoQualityBandwidth finds, by bisection on the link's operating
// fraction, the mean bandwidth (Mbps) a system consumes to deliver at
// least targetPSPNR averaged over the given sessions. It returns the
// consumed bandwidth at the cheapest passing fraction.
func (d *Dataset) isoQualityBandwidth(videoIdx []int, s System, targetPSPNR float64, maxUsers int) (float64, error) {
	lo, hi := 0.02, 3.0
	var best float64 = -1
	eval := func(frac float64) (float64, float64, error) {
		agg, err := d.aggregate(videoIdx, s, frac, sim.DefaultConfig(), maxUsers)
		if err != nil {
			return 0, 0, err
		}
		return agg.pspnr.Mean(), agg.bandwidth.Mean(), nil
	}
	// Verify the target is reachable at all.
	p, bw, err := eval(hi)
	if err != nil {
		return 0, err
	}
	if p < targetPSPNR {
		return bw, nil // best effort: report consumption at max rate
	}
	best = bw
	for i := 0; i < 9; i++ {
		mid := (lo + hi) / 2
		p, bw, err := eval(mid)
		if err != nil {
			return 0, err
		}
		if p >= targetPSPNR {
			hi = mid
			best = bw
		} else {
			lo = mid
		}
	}
	return best, nil
}

// Fig18aRow is one step of the component-wise analysis.
type Fig18aRow struct {
	System        System
	BandwidthMbps float64
	// SavingVsPrev is the incremental saving over the previous row.
	SavingVsPrev float64
	// SavingVsBase is the cumulative saving over the baseline.
	SavingVsBase float64
}

// Fig18a reproduces Figure 18(a): the bandwidth needed to hold
// PSPNR=72 (≈MOS 5) as Pano's components are added to the
// viewport-driven baseline one at a time: +content-JND awareness,
// +360JND factors, +variable-size tiling.
func Fig18a(d *Dataset) ([]Fig18aRow, *Table, error) {
	const target = 72
	order := []System{SysFlare, SysPanoTradJND, SysPano360Uniform, SysPano}
	vis := d.TracedIndices()
	if len(vis) > 2 {
		vis = vis[:2]
	}
	var rows []Fig18aRow
	var prev, base float64
	for i, s := range order {
		bw, err := d.isoQualityBandwidth(vis, s, target, 2)
		if err != nil {
			return nil, nil, err
		}
		r := Fig18aRow{System: s, BandwidthMbps: bw}
		if i == 0 {
			base = bw
		} else {
			if prev > 0 {
				r.SavingVsPrev = (prev - bw) / prev
			}
			if base > 0 {
				r.SavingVsBase = (base - bw) / base
			}
		}
		prev = bw
		rows = append(rows, r)
	}
	t := &Table{
		Title:  "Figure 18a: component-wise bandwidth at PSPNR=72 (MOS 5)",
		Header: []string{"system", "bandwidth_Mbps", "saving_vs_prev_%", "saving_vs_baseline_%"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.System.String(), fmt.Sprintf("%.3f", r.BandwidthMbps),
			f1(r.SavingVsPrev * 100), f1(r.SavingVsBase * 100)})
	}
	return rows, t, nil
}

// Fig18bRow is one genre's iso-quality bandwidth comparison.
type Fig18bRow struct {
	Genre      scene.Genre
	PanoMbps   float64
	FlareMbps  float64
	SavingFrac float64
}

// Fig18b reproduces Figure 18(b): bandwidth consumption at MOS 5
// (PSPNR≥70) for Pano vs the viewport-driven baseline by genre.
func Fig18b(d *Dataset) ([]Fig18bRow, *Table, error) {
	target := 70.0
	var rows []Fig18bRow
	t := &Table{
		Title:  "Figure 18b: bandwidth at MOS 5, Pano vs viewport-driven",
		Header: []string{"genre", "pano_Mbps", "viewport_driven_Mbps", "saving_%"},
	}
	for _, g := range []scene.Genre{scene.Documentary, scene.Sports, scene.Adventure} {
		vids := d.videosOfGenre(g, 1)
		if len(vids) == 0 {
			continue
		}
		pano, err := d.isoQualityBandwidth(vids, SysPano, target, 2)
		if err != nil {
			return nil, nil, err
		}
		flare, err := d.isoQualityBandwidth(vids, SysFlare, target, 2)
		if err != nil {
			return nil, nil, err
		}
		r := Fig18bRow{Genre: g, PanoMbps: pano, FlareMbps: flare}
		if flare > 0 {
			r.SavingFrac = (flare - pano) / flare
		}
		rows = append(rows, r)
		t.Rows = append(t.Rows, []string{g.String(), fmt.Sprintf("%.3f", pano),
			fmt.Sprintf("%.3f", flare), f1(r.SavingFrac * 100)})
	}
	return rows, t, nil
}

// PruneRow compares tile allocators on real manifest instances.
type PruneRow struct {
	Allocator string
	// CostRatio is the achieved distortion relative to the pruned
	// (exact) allocator, averaged over instances; 0 on the session rows,
	// which compare nothing.
	CostRatio float64
	// States is the measured mean number of frontier states the search
	// kept per call (pruned) or the number of combinations (exhaustive
	// bound), for scale.
	States float64
	// SearchedStates is States over the calls that built a frontier alone:
	// what a searched call costs; 0 where none did or none is run.
	SearchedStates float64
	// ThinnedFrac is the share of the pruned allocator's calls in which a
	// frontier hit the cap and was thinned, i.e. whose plan is an
	// approximation; -1 on rows that run no frontier search.
	ThinnedFrac float64
	// NoSearchFrac is the share of its calls the pruned allocator
	// answered without building a frontier — the budget afforded no
	// upgrade over the all-smallest plan, or not even that plan; -1 on
	// rows that run no frontier search.
	NoSearchFrac float64
}

// searchTally is the Pano planner with what its search did counted over
// the calls of whole sessions (atomically: a swarm's workers share it).
type searchTally struct {
	*player.PanoPlanner
	calls, states, thinned, unsearched atomic.Int64
}

func (c *searchTally) Plan(m *manifest.Video, k int, view player.ChunkView, budget float64) abr.Allocation {
	a, st := abr.SearchPruned(c.CostRows(nil, m, k, view), budget, 0)
	c.calls.Add(1)
	c.states.Add(int64(st.States))
	if st.Thinned > 0 {
		c.thinned.Add(1)
	}
	if st.States == 0 {
		c.unsearched.Add(1)
	}
	return a
}

func (c *searchTally) row(name string) PruneRow {
	n, states := float64(c.calls.Load()), float64(c.states.Load())
	r := PruneRow{Allocator: name, States: states / n,
		ThinnedFrac: float64(c.thinned.Load()) / n, NoSearchFrac: float64(c.unsearched.Load()) / n}
	if searched := n - float64(c.unsearched.Load()); searched > 0 {
		r.SearchedStates = states / searched
	}
	return r
}

// AllocationPruning reproduces the §6.1 claim that dominance-pruned
// enumeration makes optimal tile allocation tractable: it compares the
// pruned allocator, the greedy allocator, and (on truncated instances)
// exhaustive search, and then counts what the search does over the calls
// of whole sessions at the two operating points the benchmark measures:
// simulator sessions on vod_session's links, and a swarm population.
func AllocationPruning(d *Dataset) ([]PruneRow, *Table, error) {
	vi := d.TracedIndices()[0]
	m, err := d.Manifest(vi, provider.ModePano)
	if err != nil {
		return nil, nil, err
	}
	est := player.NewEstimator()
	planner := player.NewPanoPlanner()
	tr := d.Traces(vi)[0]

	var greedyRatio, exhRatio mathx.Stats
	onRows := &searchTally{PanoPlanner: planner}
	chunks := m.NumChunks()
	if chunks > 4 {
		chunks = 4
	}
	for k := 0; k < chunks; k++ {
		view := est.View(m, tr, k, float64(k)*m.ChunkSec)
		tiles := planner.CostRows(nil, m, k, view)
		budget := m.ChunkBits(k, codec.Level(2))
		pruned := onRows.Plan(m, k, view, budget)
		greedy := abr.AllocateGreedy(tiles, budget)
		pc := abr.TotalCost(tiles, pruned)
		if pc > 0 {
			greedyRatio.Add(abr.TotalCost(tiles, greedy) / pc)
		}
		// Exhaustive on the first 8 tiles with a proportional budget.
		sub := tiles[:8]
		subBudget := budget * 8 / float64(len(tiles))
		exh, err := abr.AllocateExhaustive(sub, subBudget)
		if err != nil {
			return nil, nil, err
		}
		subPruned := abr.AllocatePruned(sub, subBudget, 0)
		if c := abr.TotalCost(sub, exh); c > 0 {
			exhRatio.Add(abr.TotalCost(sub, subPruned) / c)
		}
	}

	simCalls := &searchTally{PanoPlanner: planner}
	for _, frac := range []float64{0.18, 0.30} {
		for u, tr := range d.Traces(vi) {
			link := sim.ScaledLink(m, frac, d.Scale.Seed+uint64(u))
			if _, err := sim.Run(m, tr, link, simCalls, sim.DefaultConfig()); err != nil {
				return nil, nil, err
			}
		}
	}
	swarmCalls := &searchTally{PanoPlanner: planner}
	cfg, err := d.swarmConfig()
	if err != nil {
		return nil, nil, err
	}
	cfg.Sessions, cfg.Planner = 200, swarmCalls
	cfg.ScoreEvery = cfg.Sessions + 1 // the plans are counted, not scored
	if _, err := swarm.Run(context.Background(), cfg); err != nil {
		return nil, nil, err
	}

	rows := []PruneRow{
		onRows.row("pruned (Pano §6.1)"),
		{Allocator: "greedy", CostRatio: greedyRatio.Mean(), ThinnedFrac: -1, NoSearchFrac: -1},
		{Allocator: "pruned vs exhaustive (8 tiles)", CostRatio: exhRatio.Mean(),
			States: fpow(codec.NumLevels, 8), ThinnedFrac: -1, NoSearchFrac: -1},
		simCalls.row("pruned, sim sessions on 0.18x and 0.30x links"),
		swarmCalls.row("pruned, swarm population of 200"),
	}
	t := &Table{
		Title:  "§6.1: tile allocation — pruned enumeration vs alternatives",
		Header: []string{"allocator", "cost_ratio", "search_space", "states_per_search", "thinned_pct", "no_search_pct"},
	}
	pct := func(frac float64) string {
		if frac < 0 {
			return "-"
		}
		return f1(frac * 100)
	}
	rows[0].CostRatio = 1
	for _, r := range rows {
		ratio, searched := "-", "-"
		if r.CostRatio > 0 {
			ratio = fmt.Sprintf("%.4f", r.CostRatio)
		}
		if r.SearchedStates > 0 {
			searched = f0(r.SearchedStates)
		}
		t.Rows = append(t.Rows, []string{r.Allocator, ratio, f0(r.States), searched, pct(r.ThinnedFrac), pct(r.NoSearchFrac)})
	}
	return rows, t, nil
}

func fpow(b, e int) float64 {
	out := 1.0
	for i := 0; i < e; i++ {
		out *= float64(b)
	}
	return out
}
