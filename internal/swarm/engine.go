// Package swarm is a discrete-event population simulator: it drives
// the real client session loop (client.RunSession — estimate → MPC →
// assign → fetch → stitch → QoE) for 100k–1M concurrent viewers in one
// process, in virtual time. Each session gets a client.VirtualClock, a
// netem transport (client.VirtualNet — the internal/nettrace link and
// internal/chaos fault draws sim.Run's sessions stream over too — plus
// the fleet twin), an internal/viewport head-motion trace,
// and a splitmix64-seeded RNG derived purely from (Seed, session id) —
// so results are byte-identical across runs and worker counts, which
// is what makes deep testing of the loop tractable (and what the
// determinism suite locks down).
//
// The scheduler is a single goroutine pool fed the sessions in arrival
// order; sessions are causally independent (virtual time is
// per-session), so each runs to completion on one worker and the
// per-session results are folded in session-id order into a
// deterministic Summary, per-second origin-load series, and concurrency
// curve.
package swarm

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"pano/internal/chaos"
	"pano/internal/client"
	"pano/internal/jnd"
	"pano/internal/manifest"
	"pano/internal/mathx"
	"pano/internal/nettrace"
	"pano/internal/obs"
	"pano/internal/parallel"
	"pano/internal/player"
	"pano/internal/quality"
	"pano/internal/viewport"
)

// Config describes one swarm run.
type Config struct {
	// Manifest is the encoded video every session streams.
	Manifest *manifest.Video
	// Sessions is the population size.
	Sessions int
	// Workers sizes the goroutine pool (default: parallel.Workers()).
	// Results are identical at every worker count.
	Workers int
	// Seed drives everything: per-session arrival, trace picks, fault
	// draws, and fetch jitter are pure functions of (Seed, session id).
	Seed uint64
	// ArrivalWindowSec spreads session arrivals uniformly over [0, w)
	// virtual seconds (0 = everyone arrives at t=0).
	ArrivalWindowSec float64
	// Viewports is the pool of head-motion traces sessions draw from.
	Viewports []*viewport.Trace
	// Bandwidth is the pool of throughput traces sessions draw from.
	Bandwidth []*nettrace.Trace
	// RTTSec is the per-object round-trip time (0 selects the link
	// default of 50 ms; negative disables the RTT entirely).
	RTTSec float64
	// Fault injects transport faults per tile request, with the same
	// seeded draw streams as the chaos HTTP middleware.
	Fault chaos.Rule
	// Fleet, when set, shards objects across virtual origins with
	// per-session breakers, ring failover, and whole-shard outage
	// schedules (see FleetConfig). nil keeps the single-origin model.
	Fleet *FleetConfig
	// Fetch tunes the client's retry ladder (zero = defaults).
	Fetch client.FetchPolicy
	// Planner decides per-tile levels (default: player.NewPanoPlanner,
	// the §6.1 search every other session loop plans with).
	Planner player.Planner
	// ScoreEvery samples ground-truth PSPNR scoring: sessions with
	// id % ScoreEvery == 0 are scored (default 1 = all). Scoring costs
	// about as much CPU as the session itself, so large populations
	// sample it.
	ScoreEvery int
	// RetainResults keeps every session's full StreamResult on the
	// Report — for tests and small populations only (memory scales
	// with Sessions).
	RetainResults bool
	// Obs, when set, receives the aggregated population QoE after the
	// run (pano_swarm_* counters, gauges, and the session-PSPNR
	// histogram); nil disables it.
	Obs *obs.Registry
}

func (c *Config) fillDefaults() error {
	if c.Manifest == nil {
		return fmt.Errorf("swarm: Config.Manifest is required")
	}
	if c.Sessions <= 0 {
		return fmt.Errorf("swarm: Config.Sessions must be positive")
	}
	if len(c.Viewports) == 0 {
		return fmt.Errorf("swarm: Config.Viewports must not be empty")
	}
	if len(c.Bandwidth) == 0 {
		return fmt.Errorf("swarm: Config.Bandwidth must not be empty")
	}
	if c.Workers <= 0 {
		c.Workers = parallel.Workers()
	}
	switch {
	case c.RTTSec == 0:
		c.RTTSec = 0.05
	case c.RTTSec < 0:
		c.RTTSec = 0
	}
	if c.ScoreEvery <= 0 {
		c.ScoreEvery = 1
	}
	if c.Planner == nil {
		c.Planner = player.NewPanoPlanner()
	}
	if c.Fleet != nil {
		if c.Fleet.Origins <= 0 {
			return fmt.Errorf("swarm: Config.Fleet.Origins must be positive")
		}
		if len(c.Fleet.Outages) > c.Fleet.Origins {
			return fmt.Errorf("swarm: Config.Fleet.Outages has %d entries for %d origins",
				len(c.Fleet.Outages), c.Fleet.Origins)
		}
		for i, d := range c.Fleet.Outages {
			if err := d.Validate(); err != nil {
				return fmt.Errorf("swarm: Config.Fleet.Outages[%d]: %w", i, err)
			}
		}
	}
	return nil
}

// Summary is the deterministic population rollup: it contains only
// virtual-time and logical quantities, so the same Config yields
// byte-identical JSON at any worker count on any machine. Wall-clock
// figures live on Report.
type Summary struct {
	Sessions  int   `json:"sessions"`
	Completed int   `json:"completed"`
	Errored   int   `json:"errored"`
	Chunks    int64 `json:"chunks"`
	Bytes     int64 `json:"bytes"`
	// ScoredSessions sessions were scored against ground truth
	// (Config.ScoreEvery); the PSPNR stats below are over them.
	ScoredSessions int     `json:"scored_sessions"`
	MeanPSPNR      float64 `json:"mean_pspnr_db"`
	P10PSPNR       float64 `json:"p10_pspnr_db"`
	P50PSPNR       float64 `json:"p50_pspnr_db"`
	P90PSPNR       float64 `json:"p90_pspnr_db"`
	// MeanStartupSec and the rebuffer figures are over completed
	// sessions; RebufferRatioPct is total stall over total watch+stall.
	MeanStartupSec   float64 `json:"mean_startup_sec"`
	MeanRebufferSec  float64 `json:"mean_rebuffer_sec"`
	RebufferRatioPct float64 `json:"rebuffer_ratio_pct"`
	Retries          int64   `json:"retries"`
	DegradedTiles    int64   `json:"degraded_tiles"`
	SkippedTiles     int64   `json:"skipped_tiles"`
	// PeakConcurrency and MeanConcurrency describe the population's
	// overlap in virtual time; VirtualSec is the timeline's extent.
	PeakConcurrency int     `json:"peak_concurrency"`
	MeanConcurrency float64 `json:"mean_concurrency"`
	VirtualSec      float64 `json:"virtual_sec"`
	// Origin load: every tile/manifest request of every session,
	// bucketed per virtual second.
	OriginRequests int64   `json:"origin_requests"`
	OriginPeakRPS  int64   `json:"origin_peak_rps"`
	OriginMeanRPS  float64 `json:"origin_mean_rps"`
	// Fleet-mode rollups (Config.Fleet); all omitted in single-origin
	// runs so their JSON — and the committed swarm baselines — is
	// unchanged.
	FleetOrigins      int     `json:"fleet_origins,omitempty"`
	FleetFailovers    int64   `json:"fleet_failovers,omitempty"`
	FleetHedges       int64   `json:"fleet_hedges,omitempty"`
	FleetHedgeWins    int64   `json:"fleet_hedge_wins,omitempty"`
	FleetBudgetDenied int64   `json:"fleet_budget_denied,omitempty"`
	FleetShardLoad    []int64 `json:"fleet_shard_requests,omitempty"`
}

// Report is one swarm run's full outcome: the deterministic Summary
// plus the machine-dependent wall-clock figures.
type Report struct {
	Summary Summary `json:"summary"`
	Workers int     `json:"workers"`
	WallSec float64 `json:"wall_sec"`
	// SessionsPerWallSec is the simulation rate.
	SessionsPerWallSec float64 `json:"sessions_per_wall_sec"`
	// Results holds each session's StreamResult (session id order)
	// when Config.RetainResults was set; nil otherwise.
	Results []*client.StreamResult `json:"-"`
}

// params are one session's derived parameters — a pure function of
// (Config.Seed, id), so execution order never matters.
type params struct {
	arrival   float64
	vp, bw    int
	faultSeed uint64
	fetchSeed uint64
}

func sessionParams(cfg *Config, id int) params {
	rng := mathx.NewRNG(cfg.Seed + uint64(id)*0x9e3779b97f4a7c15 + 0xa11ce)
	var p params
	u := rng.Float64() // always drawn, so the stream is stable
	if cfg.ArrivalWindowSec > 0 {
		p.arrival = u * cfg.ArrivalWindowSec
	}
	p.vp = rng.Intn(len(cfg.Viewports))
	p.bw = rng.Intn(len(cfg.Bandwidth))
	p.faultSeed = rng.Uint64()
	p.fetchSeed = rng.Uint64()
	return p
}

// sessionStats is one session's contribution to the fold.
type sessionStats struct {
	ok          bool
	scored      bool
	chunks      int
	bytes       int64
	rebufferSec float64
	startupSec  float64
	meanPSPNR   float64
	retries     int
	degraded    int
	skipped     int
	arrival     float64
	endSec      float64
	originReqs  int64
	result      *client.StreamResult
	// fleet-mode contributions (nil/zero in single-origin runs)
	fleetReqs []int64
	fleet     fleetCounts
}

// Run simulates the population and returns its Report. Sessions are
// dispatched in arrival order from the event queue to Workers
// goroutines; per-session outcomes land in indexed slots and are
// folded in session-id order, so the Summary is identical for any
// worker count. ctx cancellation stops the run (canceled sessions
// count as errored).
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	wallStart := time.Now()

	// What a session's manifest GET moves over its link: the wire size
	// of /manifest.json.
	manifestBits := float64(8 * cfg.Manifest.WireLen())
	prof := jnd.Default()
	var place *placement
	if cfg.Fleet != nil {
		// One immutable shard map shared by every session.
		place = newPlacement(cfg.Manifest, cfg.Fleet)
	}

	// Arrival schedule: the dispatch feed, in arrival order.
	q := make([]event, 0, cfg.Sessions)
	for id := 0; id < cfg.Sessions; id++ {
		q = append(q, event{at: sessionParams(&cfg, id).arrival, id: id, delta: +1})
	}
	slices.SortFunc(q, byTime)
	feed := make(chan int, 4*cfg.Workers)
	go func() {
		defer close(feed)
		for _, e := range q {
			select {
			case feed <- e.id:
			case <-ctx.Done():
				return
			}
		}
	}()

	slots := make([]sessionStats, cfg.Sessions)
	workers := make([]scratch, cfg.Workers)
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func(w *scratch) {
			defer wg.Done()
			for id := range feed {
				slots[id] = runSession(ctx, &cfg, id, manifestBits, prof, place, w)
			}
		}(&workers[i])
	}
	wg.Wait()

	rep := fold(&cfg, slots, workers)
	rep.Workers = cfg.Workers
	rep.WallSec = time.Since(wallStart).Seconds()
	if rep.WallSec > 0 {
		rep.SessionsPerWallSec = float64(cfg.Sessions) / rep.WallSec
	}
	aggregate(cfg.Obs, &rep.Summary, slots)
	return rep, nil
}

// runSession drives one full virtual session and, when sampled, scores
// the delivered frames against the ground-truth viewpoint trace.
func runSession(ctx context.Context, cfg *Config, id int, manifestBits float64, prof *jnd.Profile, place *placement, w *scratch) sessionStats {
	p := sessionParams(cfg, id)
	vp := cfg.Viewports[p.vp]
	tp, sc := newSession(cfg, p, manifestBits, place, w)
	res, err := client.RunSession(ctx, tp, vp, sc)

	st := sessionStats{
		arrival:    p.arrival,
		endSec:     tp.Clock.NowSec(),
		originReqs: tp.Requests(),
	}
	if tp.fleet != nil {
		st.fleetReqs, st.fleet = tp.fleet.reqs, tp.fleet.fleetCounts
	}
	if err != nil {
		return st
	}
	st.ok = true
	st.chunks = len(res.Chunks)
	st.bytes = int64(res.TotalBytes)
	st.rebufferSec = res.RebufferSec
	st.startupSec = res.StartupDelay.Seconds()
	st.retries = res.TotalRetries
	st.degraded = res.DegradedTiles
	st.skipped = res.SkippedTiles
	if cfg.RetainResults {
		st.result = res
	}
	if id%cfg.ScoreEvery == 0 && len(res.Chunks) > 0 {
		// Ground-truth QoE: re-score what was actually delivered
		// (degraded levels, stale tiles) against the real head
		// trajectory — the population analogue of sim.Run's scoring.
		est := player.NewEstimator()
		var sum float64
		for _, cr := range res.Chunks {
			actual := est.ActualView(cfg.Manifest, vp, cr.Chunk)
			sum += player.FramePSPNRDegraded(cfg.Manifest, cr.Chunk, cr.Levels, cr.Stale, actual, prof)
		}
		st.meanPSPNR = sum / float64(len(res.Chunks))
		st.scored = true
	}
	return st
}

// newSession builds the transport and stream config of the session
// drawn as p: its virtual clock, link, fault plan and fleet twin.
func newSession(cfg *Config, p params, manifestBits float64, place *placement, w *scratch) (*netem, client.StreamConfig) {
	clk := client.NewVirtualClock(p.arrival)
	link := &nettrace.Link{Trace: cfg.Bandwidth[p.bw], RTTSec: cfg.RTTSec}
	tp := newNetem(cfg.Manifest, clk, link, cfg.Fault, p.faultSeed, manifestBits, w)
	pol := cfg.Fetch
	pol.Seed = p.fetchSeed
	if cfg.Fleet != nil {
		tp.fleet = newFleetSim(cfg.Fleet, place, p.faultSeed, pol)
	}
	// sim's buffer model: a 2 s MPC target, prefetch capped at 3 s, the
	// whole video, no cap on the bandwidth estimate.
	return tp, client.StreamConfig{
		BufferTargetSec: 2,
		MaxBufferSec:    3,
		SimModel:        true,
		Planner:         cfg.Planner,
		Fetch:           pol,
		Clock:           clk,
	}
}

// fold reduces the per-session slots — in session-id order, so float
// accumulation is deterministic — into the Report.
func fold(cfg *Config, slots []sessionStats, workers []scratch) *Report {
	s := Summary{Sessions: len(slots)}
	if cfg.Fleet != nil {
		s.FleetOrigins = cfg.Fleet.Origins
		s.FleetShardLoad = make([]int64, cfg.Fleet.Origins)
	}
	var stallSum, watchSum, startupSum float64
	var pspnr []float64
	var load []int64
	for i := range workers {
		wl := workers[i].load
		if len(wl) > len(load) {
			load = append(load, make([]int64, len(wl)-len(load))...)
		}
		for sec, n := range wl {
			load[sec] += n
		}
	}
	merge := make([]event, 0, 2*len(slots))
	var retained []*client.StreamResult
	if cfg.RetainResults {
		retained = make([]*client.StreamResult, len(slots))
	}
	for id := range slots {
		st := &slots[id]
		if st.ok {
			s.Completed++
		} else {
			s.Errored++
		}
		s.Chunks += int64(st.chunks)
		s.Bytes += st.bytes
		s.Retries += int64(st.retries)
		s.DegradedTiles += int64(st.degraded)
		s.SkippedTiles += int64(st.skipped)
		s.OriginRequests += st.originReqs
		s.FleetFailovers += st.fleet.failovers
		s.FleetHedges += st.fleet.hedges
		s.FleetHedgeWins += st.fleet.hedgeWins
		s.FleetBudgetDenied += st.fleet.budgetDenied
		for o, n := range st.fleetReqs {
			s.FleetShardLoad[o] += n
		}
		stallSum += st.rebufferSec
		watchSum += float64(st.chunks) * cfg.Manifest.ChunkSec
		startupSum += st.startupSec
		if st.scored {
			pspnr = append(pspnr, st.meanPSPNR)
		}
		if st.endSec > s.VirtualSec {
			s.VirtualSec = st.endSec
		}
		merge = append(merge, event{at: st.arrival, id: id, delta: +1},
			event{at: st.endSec, id: id, delta: -1})
		if retained != nil {
			retained[id] = st.result
		}
	}

	s.ScoredSessions = len(pspnr)
	if len(pspnr) > 0 {
		var sum float64
		for _, v := range pspnr {
			sum += v
		}
		s.MeanPSPNR = sum / float64(len(pspnr))
		sorted := append([]float64(nil), pspnr...)
		sort.Float64s(sorted)
		s.P10PSPNR = quantile(sorted, 0.10)
		s.P50PSPNR = quantile(sorted, 0.50)
		s.P90PSPNR = quantile(sorted, 0.90)
	}
	if s.Completed > 0 {
		s.MeanStartupSec = startupSum / float64(s.Completed)
		s.MeanRebufferSec = stallSum / float64(s.Completed)
	}
	if watchSum+stallSum > 0 {
		s.RebufferRatioPct = 100 * stallSum / (watchSum + stallSum)
	}

	// Concurrency curve from the sorted events: +1 at arrival, -1 at end.
	slices.SortFunc(merge, byTime)
	var cur int
	var area, last float64
	for _, e := range merge {
		area += float64(cur) * (e.at - last)
		last = e.at
		cur += e.delta
		if cur > s.PeakConcurrency {
			s.PeakConcurrency = cur
		}
	}
	if s.VirtualSec > 0 {
		s.MeanConcurrency = area / s.VirtualSec
		s.OriginMeanRPS = float64(s.OriginRequests) / s.VirtualSec
	}
	for _, n := range load {
		if n > s.OriginPeakRPS {
			s.OriginPeakRPS = n
		}
	}
	return &Report{Summary: s, Results: retained}
}

// quantile reads a sorted slice at q in [0, 1] (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Round(q * float64(len(sorted)-1)))
	return sorted[i]
}

// aggregate publishes the population rollup into an obs registry (the
// same registry family the HTTP stack feeds), so telemetry samplers
// and dashboards read swarm populations like any other source.
func aggregate(reg *obs.Registry, s *Summary, slots []sessionStats) {
	if reg == nil {
		return
	}
	reg.Counter("pano_swarm_sessions_total", "swarm sessions by terminal status",
		obs.L("status", "ok")).Add(float64(s.Completed))
	reg.Counter("pano_swarm_sessions_total", "swarm sessions by terminal status",
		obs.L("status", "error")).Add(float64(s.Errored))
	reg.Counter("pano_swarm_chunks_total", "chunks streamed by the swarm").Add(float64(s.Chunks))
	reg.Counter("pano_swarm_bytes_total", "media bytes downloaded by the swarm").Add(float64(s.Bytes))
	reg.Counter("pano_swarm_rebuffer_seconds_total", "total stall seconds across the swarm").
		Add(s.MeanRebufferSec * float64(s.Completed))
	reg.Counter("pano_swarm_retries_total", "failed fetch attempts across the swarm").Add(float64(s.Retries))
	reg.Counter("pano_swarm_tiles_skipped_total", "tiles lost after the full ladder").Add(float64(s.SkippedTiles))
	h := reg.Histogram("pano_swarm_session_pspnr_db",
		"per-session ground-truth viewport PSPNR", quality.PSPNRBuckets)
	for i := range slots {
		if slots[i].scored {
			h.Observe(slots[i].meanPSPNR)
		}
	}
	if s.FleetOrigins > 0 {
		reg.Counter("pano_swarm_fleet_failovers_total",
			"objects answered after more than one attempt or by a hedge").Add(float64(s.FleetFailovers))
		reg.Counter("pano_swarm_fleet_hedges_total",
			"hedged backup transfers modelled across the swarm").Add(float64(s.FleetHedges))
		reg.Counter("pano_swarm_fleet_hedge_wins_total",
			"modelled hedges that beat the primary transfer").Add(float64(s.FleetHedgeWins))
		reg.Counter("pano_swarm_fleet_budget_denied_total",
			"fleet ladder steps suppressed by a dry retry budget").Add(float64(s.FleetBudgetDenied))
		for o, n := range s.FleetShardLoad {
			reg.Counter("pano_swarm_fleet_requests_total",
				"swarm origin requests by fleet shard",
				obs.L("origin", fmt.Sprintf("%d", o))).Add(float64(n))
		}
	}
	reg.Gauge("pano_swarm_peak_concurrency", "peak concurrent sessions in virtual time").
		Set(float64(s.PeakConcurrency))
	reg.Gauge("pano_swarm_origin_peak_rps", "peak origin requests per virtual second").
		Set(float64(s.OriginPeakRPS))
	reg.Gauge("pano_swarm_virtual_sec", "virtual timeline extent of the last run").Set(s.VirtualSec)
}
