package experiments

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"pano/internal/chaos"
	"pano/internal/client"
	"pano/internal/edge"
	"pano/internal/fleet"
	"pano/internal/obs"
	"pano/internal/provider"
	"pano/internal/swarm"
	"pano/internal/testbed"
)

// FleetScenarioResult is one row of the fleet bench: a session
// population streamed against a 4-shard origin fleet, healthy or with
// one shard hard-down mid-run.
type FleetScenarioResult struct {
	Scenario string
	Live     bool // httptest edges+origins (wall time) vs swarm (virtual time)
	Sessions int
	Aborted  int
	// Deterministic swarm figures (zero-valued on live rows).
	MeanPSPNR      float64
	P10PSPNR       float64
	RebufferPct    float64
	SkippedTiles   int64
	Failovers      int64
	Hedges         int64
	BudgetDenied   int64
	OriginRequests int64
	// ShardLoad is per-shard request counts (swarm: virtual origin
	// requests; live: /video/ requests reaching each shard origin).
	ShardLoad     []int64
	MaxShardShare float64
	// Live-only figures.
	MeanEstPSPNR  float64 // client-side estimate, mean over sessions
	LiveTileReqs  int64   // /video/ requests across all shard origins
	BreakerOpenMs float64 // kill -> the shard's breaker out of Closed on every edge
	WallSec       float64
}

// FleetBenchResult is the BENCH_fleet.json payload: the resilience
// ledger for the sharded origin fleet. The swarm rows are deterministic
// (virtual time, seeded) and carry the gateable QoE delta; the live
// rows drive real edges over HTTP and prove zero aborts plus prompt
// breaker reaction when a shard dies under load.
type FleetBenchResult struct {
	Origins      int
	Rows         []FleetScenarioResult
	PSPNRDeltaDB float64 // swarm healthy mean PSPNR - outage mean PSPNR
}

// FleetSwarmSessions sizes the deterministic swarm rows. A variable
// (like SwarmPopulations) so the test suite can shrink it.
var FleetSwarmSessions = 50_000

const (
	fleetOriginCount  = 4
	fleetEdgeCount    = 3
	fleetLiveSessions = 24
	// fleetKillAfter is when the live outage scenario hard-kills shard 0,
	// measured from session launch: late enough that every session is
	// mid-stream, early enough that plenty of fetches remain.
	fleetKillAfter = 600 * time.Millisecond
	// fleetProbeInterval paces the edges' active /healthz probes; the
	// acceptance bound is that a dead shard's breaker opens within a few
	// of these.
	fleetProbeInterval = 150 * time.Millisecond
)

// zipfAssign deterministically spreads n sessions over k choices with a
// Zipf(s=1.2) popularity profile (largest-remainder allocation, no RNG):
// choice 0 is the head, the tail shares the rest. Session u's choice is
// out[u].
func zipfAssign(n, k int) []int {
	w := make([]float64, k)
	var sum float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), 1.2)
		sum += w[i]
	}
	out := make([]int, 0, n)
	cum := 0.0
	for i := range w {
		cum += w[i] / sum
		for len(out) < int(math.Round(cum*float64(n))) && len(out) < n {
			out = append(out, i)
		}
	}
	for len(out) < n {
		out = append(out, 0)
	}
	return out
}

func maxShare(load []int64) float64 {
	var sum, max int64
	for _, n := range load {
		sum += n
		if n > max {
			max = n
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) / float64(sum)
}

// fleetSwarmScenario runs one deterministic swarm row: the shared swarm
// workload resharded over 4 virtual origins, with modelled hedging and,
// optionally, shard 0 hard-down for a window in the thick of the run.
func fleetSwarmScenario(base swarm.Config, scenario string, outage bool) (FleetScenarioResult, error) {
	cfg := base
	cfg.Sessions = FleetSwarmSessions
	cfg.ScoreEvery = swarmScoreEvery(FleetSwarmSessions)
	cfg.Fetch.HedgeDelay = 150 * time.Millisecond
	cfg.Fleet = &swarm.FleetConfig{
		Origins: fleetOriginCount,
		Breaker: fleet.BreakerConfig{FailureThreshold: 2, OpenFor: 2 * time.Second},
	}
	if outage {
		cfg.Fleet.Outages = []chaos.Down{{After: 20 * time.Second, For: 40 * time.Second}}
	}
	t0 := time.Now()
	rep, err := swarm.Run(context.Background(), cfg)
	if err != nil {
		return FleetScenarioResult{}, err
	}
	s := rep.Summary
	return FleetScenarioResult{
		Scenario:       scenario,
		Sessions:       s.Sessions,
		Aborted:        s.Errored,
		MeanPSPNR:      s.MeanPSPNR,
		P10PSPNR:       s.P10PSPNR,
		RebufferPct:    s.RebufferRatioPct,
		SkippedTiles:   s.SkippedTiles,
		Failovers:      s.FleetFailovers,
		Hedges:         s.FleetHedges,
		BudgetDenied:   s.FleetBudgetDenied,
		OriginRequests: s.OriginRequests,
		ShardLoad:      s.FleetShardLoad,
		MaxShardShare:  maxShare(s.FleetShardLoad),
		WallSec:        time.Since(t0).Seconds(),
	}, nil
}

// FleetBench is the origin-fleet resilience bench. Two deterministic
// swarm rows reshard the swarm workload over 4 virtual origins —
// healthy, then with one shard down for a 40 s window mid-run — and
// carry the acceptance gate: zero aborts and a mean-PSPNR delta within
// 2 dB. Two live rows then stand up the real stack (4 shard origins
// behind 3 caching edges, Zipf-popular viewpoints, hedged fleet
// fetches) and hard-kill a shard mid-run: sessions must ride through on
// ring failover with zero aborts while the edges' breakers open within
// a few probe intervals.
func FleetBench(d *Dataset) (FleetBenchResult, *Table, error) {
	res := FleetBenchResult{Origins: fleetOriginCount}

	base, err := d.swarmConfig()
	if err != nil {
		return res, nil, err
	}
	for _, sc := range []struct {
		name   string
		outage bool
	}{{"swarm_healthy", false}, {"swarm_outage", true}} {
		row, err := fleetSwarmScenario(base, sc.name, sc.outage)
		if err != nil {
			return res, nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	res.PSPNRDeltaDB = res.Rows[0].MeanPSPNR - res.Rows[1].MeanPSPNR

	idx := d.TracedIndices()[0]
	m, err := d.Manifest(idx, provider.ModePano)
	if err != nil {
		return res, nil, err
	}
	traces := d.Traces(idx)
	pick := zipfAssign(fleetLiveSessions, len(traces))

	// Loopback-scaled policy as in EdgeBench, plus a fixed hedge delay:
	// adaptive hedging tracks wall-clock p95 and would burn the shared
	// hedge/failover budget on scheduler noise under load.
	pol := testbed.LoopbackPolicy()
	pol.HedgeDelay = 150 * time.Millisecond
	rateCap := testbed.RateCap(m)

	runLive := func(scenario string, kill bool) (FleetScenarioResult, error) {
		t0 := time.Now()
		r := FleetScenarioResult{Scenario: scenario, Live: true, Sessions: fleetLiveSessions}

		tb := testbed.New()
		defer tb.Close()
		for i := 0; i < fleetOriginCount; i++ {
			if _, err := tb.AddOrigin(testbed.OriginConfig{Manifest: m, Chaos: d.originLatency(5 * time.Millisecond)}); err != nil {
				return r, err
			}
		}
		for i := 0; i < fleetEdgeCount; i++ {
			if _, err := tb.AddEdge(edge.Config{
				ProbeInterval: fleetProbeInterval,
				Breaker:       fleet.BreakerConfig{FailureThreshold: 2, OpenFor: 500 * time.Millisecond},
				CacheBytes:    32 << 20,
				TTL:           5 * time.Minute,
				Fetch:         pol,
				Obs:           obs.NewRegistry(),
			}); err != nil {
				return r, err
			}
		}

		// The kill watcher fires mid-run, then clocks how long the fleet
		// takes to notice: shard 0's breaker out of Closed on every edge.
		var watch sync.WaitGroup
		if kill {
			watch.Add(1)
			go func() {
				defer watch.Done()
				time.Sleep(fleetKillAfter)
				tb.Origins[0].Kill()
				if took, err := tb.WaitBreaker(0, fleet.Open, 5*time.Second); err == nil {
					r.BreakerOpenMs = float64(took.Microseconds()) / 1000
				}
			}()
		}

		outs, aborted := testbed.Sessions(fleetLiveSessions, sessionStagger, func(u int) (*client.StreamResult, error) {
			p := pol
			p.Seed = uint64(u + 1)
			return tb.Client(tb.Edges[u%fleetEdgeCount].URL).Stream(context.Background(), traces[pick[u]], client.StreamConfig{
				MaxRateBps: rateCap,
				Fetch:      p,
			})
		})
		watch.Wait()

		r.Aborted = aborted
		for _, out := range outs {
			r.SkippedTiles += int64(out.SkippedTiles)
			r.MeanEstPSPNR += out.MeanEstPSPNR()
		}
		if len(outs) > 0 {
			r.MeanEstPSPNR /= float64(len(outs))
		}
		r.ShardLoad = make([]int64, fleetOriginCount)
		for i, o := range tb.Origins {
			r.ShardLoad[i] = o.TileRequests()
			r.LiveTileReqs += r.ShardLoad[i]
		}
		r.MaxShardShare = maxShare(r.ShardLoad)
		r.WallSec = time.Since(t0).Seconds()
		return r, nil
	}

	for _, sc := range []struct {
		name string
		kill bool
	}{{"live_healthy", false}, {"live_outage", true}} {
		row, err := runLive(sc.name, sc.kill)
		if err != nil {
			return res, nil, err
		}
		res.Rows = append(res.Rows, row)
	}

	// Gated columns hold only deterministic values: the swarm rows carry
	// the QoE/failover figures, the live rows contribute sessions /
	// aborted / skipped (all exact) and blank the rest. live_reqs,
	// breaker_open_ms, and wall_sec measure the machine and are excluded
	// via benchdiff -ignore.
	t := &Table{
		Title: fmt.Sprintf("Origin fleet: %d shards, 1 killed mid-run — swarm PSPNR delta %.2f dB, live aborts %d",
			res.Origins, res.PSPNRDeltaDB, res.Rows[2].Aborted+res.Rows[3].Aborted),
		Header: []string{"scenario", "sessions", "aborted", "mean_pspnr_db", "p10_pspnr_db",
			"rebuffer_pct", "skipped_tiles", "failovers", "hedges", "budget_denied",
			"max_shard_share", "origin_requests", "live_reqs", "breaker_open_ms", "wall_sec"},
	}
	for _, r := range res.Rows {
		pspnr, p10, rebuf, fo, hg, bd, share, oreq := "-", "-", "-", "-", "-", "-", "-", "-"
		liveReqs, brk := "-", "-"
		if r.Live {
			liveReqs = fmt.Sprintf("%d", r.LiveTileReqs)
			if r.BreakerOpenMs > 0 {
				brk = f1(r.BreakerOpenMs)
			}
		} else {
			pspnr, p10, rebuf = f1(r.MeanPSPNR), f1(r.P10PSPNR), f2(r.RebufferPct)
			fo = fmt.Sprintf("%d", r.Failovers)
			hg = fmt.Sprintf("%d", r.Hedges)
			bd = fmt.Sprintf("%d", r.BudgetDenied)
			share = f2(r.MaxShardShare)
			oreq = fmt.Sprintf("%d", r.OriginRequests)
		}
		t.Rows = append(t.Rows, []string{
			r.Scenario,
			fmt.Sprintf("%d", r.Sessions),
			fmt.Sprintf("%d", r.Aborted),
			pspnr, p10, rebuf,
			fmt.Sprintf("%d", r.SkippedTiles),
			fo, hg, bd, share, oreq, liveReqs, brk,
			f1(r.WallSec),
		})
	}
	return res, t, nil
}
