package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"pano/internal/client"
	"pano/internal/edge"
	"pano/internal/fleet"
	"pano/internal/obs"
	"pano/internal/player"
	"pano/internal/provider"
	"pano/internal/sim"
	"pano/internal/telemetry"
	"pano/internal/testbed"
	"pano/internal/trace"
)

// ClusterBenchResult is the BENCH_cluster.json payload: the federation
// contract for the cluster observability plane. A five-process fleet
// (2 shard origins, 2 caching edges, one client/simulator process) is
// scraped by the obsd plane; an origin is hard-killed mid-run and the
// fleet-wide SLOs must page on the merged series and recover after
// revival; at quiescence the federated counter rollup must equal the
// arithmetic per-process sums exactly, and the cross-process trace of
// one session must assemble into a single validated timeline.
type ClusterBenchResult struct {
	Processes int // scraped registries (origins + edges + client)
	Targets   int // federation scrape targets
	FinalUp   int // targets up at the final collect

	Sessions    int // live HTTP sessions (healthy + outage)
	SimSessions int // starved simulator sessions during the outage
	Aborted     int

	// Exact-federation ledger: every rollup counter/histogram series is
	// recomputed from the per-target /metrics text in target order and
	// compared with ==.
	CounterSeries   int
	CounterMismatch int
	HistSeries      int
	HistMismatch    int
	Unmergeable     int // histogram families dropped for layout skew

	Origin0StaleSeen bool // target_up{origin0}=0 observed while killed

	RebufferPageStep  int // 0-based tick of the first rebuffer page (-1 = never)
	RebufferRecovered bool
	BreakerPageStep   int
	BreakerRecovered  bool
	TraceProcesses    int // distinct processes in the assembled session trace
	TraceSpans        int
	PerfettoEvents    int // validated X events of cluster.perfetto.json
	BuildVersions     int // distinct pano_build_info commits across the fleet
	WallSec           float64
}

// Cluster bench topology and logical-time schedule (one tick per
// simulated second, exactly like the telemetry bench).
const (
	clusterOriginCount     = 2
	clusterEdgeCount       = 2
	clusterHealthySessions = 6
	clusterOutageSessions  = 2
	clusterHealthySteps    = 12
	clusterOutageSteps     = 20
	clusterRecoverSteps    = 45
	// clusterProbeInterval paces the edges' active origin probes (wall
	// clock); a killed origin's breaker opens within a few of these.
	clusterProbeInterval = 50 * time.Millisecond
)

// clusterSLOSpec keeps the two fleet-meaningful objectives with windows
// sized to the logical schedule and turns the rest off so the
// trajectory is two-cause. breaker_open is the federation showcase: one
// open breaker per edge never pages a single process (each is at the
// <=1 ceiling), but the cluster rollup sums the gauges to 2 and pages —
// the outage is only visible fleet-wide.
const clusterSLOSpec = "rebuffer<=0.05@8s/24s!1.5/3;breaker_open<=1@8s/24s!1/2;" +
	"pspnr_floor=off;tile_p99=off;edge_hit=off;abort=off;failover_p99=off;hedge_rate=off"

// ClusterBench runs the cluster observability-plane experiment; the
// acceptance contract lives in the assertions (any failure errors the
// experiment out) and the table carries only deterministic values —
// wall-clock detail rides in the info column, which the benchdiff gate
// ignores.
func ClusterBench(d *Dataset) (ClusterBenchResult, *Table, error) {
	t0 := time.Now()
	res := ClusterBenchResult{
		Processes:        clusterOriginCount + clusterEdgeCount + 1,
		Targets:          clusterOriginCount + clusterEdgeCount + 1,
		Sessions:         clusterHealthySessions + clusterOutageSessions,
		RebufferPageStep: -1, BreakerPageStep: -1,
	}
	fail := func(format string, args ...any) (ClusterBenchResult, *Table, error) {
		return res, nil, fmt.Errorf("cluster: "+format, args...)
	}

	idx := d.TracedIndices()[0]
	m, err := d.Manifest(idx, provider.ModePano)
	if err != nil {
		return res, nil, err
	}
	traces := d.Traces(idx)

	tb := testbed.New()
	defer tb.Close()

	// Shard origins: real pano-servers with their own observability and
	// some tile latency; origin 0 is the one killed and revived.
	for i := 0; i < clusterOriginCount; i++ {
		reg, tr := tb.NewObs()
		if _, err := tb.AddOrigin(testbed.OriginConfig{
			Manifest: m, Chaos: d.originLatency(2 * time.Millisecond), Obs: reg, Tracer: tr,
		}); err != nil {
			return res, nil, err
		}
	}

	// Caching edges over both origins: probes + breakers
	// give the cluster its pano_fleet_origins_open signal.
	pol := testbed.LoopbackPolicy()
	pol.HedgeDelay = 150 * time.Millisecond
	for i := 0; i < clusterEdgeCount; i++ {
		reg, tr := tb.NewObs()
		if _, err := tb.AddEdge(edge.Config{
			ProbeInterval: clusterProbeInterval,
			Breaker:       fleet.BreakerConfig{FailureThreshold: 2, OpenFor: 400 * time.Millisecond},
			CacheBytes:    32 << 20,
			TTL:           5 * time.Minute,
			Fetch:         pol,
			Obs:           reg,
			Tracer:        tr,
		}); err != nil {
			return res, nil, err
		}
	}

	// The client/simulator "process": live sessions and starved sim
	// sessions share one registry.
	clientReg, clientTracer := tb.NewObs()

	// The obsd plane, built exactly like cmd/pano-obsd: scrape-target
	// CSV through the flag parser, scraper as the sampler's Source.
	targetCSV := fmt.Sprintf("client=%s,edge0=%s,edge1=%s,origin0=%s,origin1=%s",
		tb.ServeOps(clientReg, clientTracer), tb.Edges[0].URL, tb.Edges[1].URL, tb.Origins[0].URL, tb.Origins[1].URL)
	targets, err := telemetry.ParseScrapeTargets(targetCSV)
	if err != nil {
		return res, nil, err
	}
	regD := obs.NewRegistry()
	obs.ExportBuildInfo(regD)
	sc, err := telemetry.NewScraper(telemetry.ScraperConfig{
		Targets:      targets,
		Timeout:      2 * time.Second,
		Interval:     time.Second,
		Self:         regD,
		SelfInstance: "obsd",
	})
	if err != nil {
		return res, nil, err
	}
	slos, err := telemetry.ParseSLOs(clusterSLOSpec)
	if err != nil {
		return res, nil, err
	}
	smp := telemetry.New(telemetry.Config{
		Obs: regD, SLOs: slos, Interval: time.Second, Window: 3 * time.Minute,
		Source:    sc.Collect,
		DashExtra: sc.DashPanels,
	})

	// Logical clock: every tick scrapes the whole fleet and evaluates
	// the SLOs one simulated second later.
	now := time.Unix(1700000000, 0)
	step := 0
	tick := func() {
		smp.Step(now)
		if smp.State("rebuffer") == telemetry.StatePage && res.RebufferPageStep < 0 {
			res.RebufferPageStep = step
		}
		if smp.State("breaker_open") == telemetry.StatePage && res.BreakerPageStep < 0 {
			res.BreakerPageStep = step
		}
		now = now.Add(time.Second)
		step++
	}

	liveSession := func(u int, tr *trace.Tracer) (*client.StreamResult, error) {
		p := pol
		p.Seed = uint64(u + 1)
		return tb.Client(tb.Edges[u%clusterEdgeCount].URL).Stream(context.Background(), traces[u%len(traces)], client.StreamConfig{
			Fetch: p,
			Obs:   clientReg,
			Trace: tr,
		})
	}

	// Phase 1 — healthy. Session 0 runs alone and traced, so its cold
	// cache misses fill from its own request context and the origin
	// spans join its trace; the rest run concurrently, untraced.
	traced, err := liveSession(0, clientTracer)
	if err != nil {
		return fail("traced healthy session: %v", err)
	}
	sessionTraceID := traced.TraceID
	if sessionTraceID == "" {
		return fail("traced session returned no trace id")
	}
	_, res.Aborted = testbed.Sessions(clusterHealthySessions-1, 0, func(u int) (*client.StreamResult, error) {
		return liveSession(u+1, nil)
	})
	for i := 0; i < clusterHealthySteps; i++ {
		tick()
	}
	if st := smp.State("rebuffer"); st != telemetry.StateOK {
		return fail("rebuffer SLO %v after healthy phase", st)
	}
	if st := smp.State("breaker_open"); st != telemetry.StateOK {
		return fail("breaker_open SLO %v after healthy phase", st)
	}

	// Cross-process trace assembly, probed through the obsd endpoint the
	// way an operator would: one trace id, spans from client, edge, and
	// origin processes on one timeline.
	rec := httptest.NewRecorder()
	sc.TraceHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?trace="+sessionTraceID, nil))
	if rec.Code != http.StatusOK {
		return fail("obsd trace endpoint: %d %s", rec.Code, rec.Body.String())
	}
	if _, err := trace.ValidateChromeTrace(rec.Body.Bytes()); err != nil {
		return fail("assembled trace invalid: %v", err)
	}
	parsed, err := trace.ParseChromeTrace(rec.Body.Bytes())
	if err != nil {
		return fail("assembled trace unparseable: %v", err)
	}
	for _, td := range parsed {
		if td.ID.String() == sessionTraceID {
			res.TraceProcesses = len(td.Processes())
			res.TraceSpans = len(td.Spans)
		}
	}
	if res.TraceProcesses < 3 {
		return fail("assembled session trace spans %d processes, want >= 3 (client, edge, origin)", res.TraceProcesses)
	}

	// Export the full assembled cluster view for Perfetto and validate
	// the export's shape, like the trace bench does for one process.
	assembled := sc.AssembleTraces()
	var export bytes.Buffer
	if err := trace.WriteAssembledChromeTrace(&export, assembled...); err != nil {
		return res, nil, err
	}
	if res.PerfettoEvents, err = trace.ValidateChromeTrace(export.Bytes()); err != nil {
		return fail("cluster.perfetto.json invalid: %v", err)
	}

	// Phase 2 — kill origin 0 and wait (wall clock) for both edges'
	// breakers to leave Closed, so the outage ticks below scrape a fleet
	// that has already noticed.
	tb.Origins[0].Kill()
	if _, err := tb.WaitBreaker(0, fleet.Open, 5*time.Second); err != nil {
		return fail("after origin0 kill: %v", err)
	}

	// Outage ticks: starved, lossy simulator sessions pour rebuffer
	// seconds into the client process while the dead origin's scrapes
	// fail (staleness) and both edges report an open breaker (the
	// cluster-only breaker_open page). Two live sessions ride through
	// the outage on failover and must not abort.
	outageLive := 0
	for i := 0; i < clusterOutageSteps; i++ {
		if i < clusterOutageSteps/2 {
			link := sim.ScaledLink(m, 0.05, d.Scale.Seed+100+uint64(i))
			if _, err := sim.Run(m, traces[0], link, player.NewPanoPlanner(), sim.Config{
				Seed: d.Scale.Seed + 100 + uint64(i), Obs: clientReg, TileLossRate: 0.1,
			}); err != nil {
				return res, nil, err
			}
			res.SimSessions++
		}
		if i == 3 || i == 11 {
			if _, err := liveSession(clusterHealthySessions+outageLive, nil); err != nil {
				res.Aborted++
			}
			outageLive++
		}
		tick()
		for _, ts := range sc.Targets() {
			if ts.Instance == "origin0" && !ts.Up {
				res.Origin0StaleSeen = true
			}
		}
	}
	if !res.Origin0StaleSeen {
		return fail("origin0 never reported stale during the kill window")
	}
	if res.RebufferPageStep < 0 {
		return fail("rebuffer SLO never paged during the outage (state %v)", smp.State("rebuffer"))
	}
	if res.BreakerPageStep < 0 {
		return fail("breaker_open SLO never paged during the outage (state %v)", smp.State("breaker_open"))
	}

	// Phase 3 — revive and recover. Wall-clock wait for the breakers to
	// close again (half-open probes succeed), then clean logical ticks
	// drain the burn windows and flap damping steps both SLOs down.
	tb.Origins[0].Revive()
	if _, err := tb.WaitBreaker(0, fleet.Closed, 5*time.Second); err != nil {
		return fail("after origin0 revival: %v", err)
	}
	for i := 0; i < clusterRecoverSteps; i++ {
		tick()
	}
	res.RebufferRecovered = smp.State("rebuffer") == telemetry.StateOK
	res.BreakerRecovered = smp.State("breaker_open") == telemetry.StateOK
	if !res.RebufferRecovered || !res.BreakerRecovered {
		return fail("SLOs did not recover (rebuffer %v, breaker_open %v)",
			smp.State("rebuffer"), smp.State("breaker_open"))
	}
	if res.Aborted != 0 {
		return fail("%d live sessions aborted", res.Aborted)
	}

	// Quiescence: stop the edges' active probes (the only background
	// registry writers), then run one final collect and freeze. From
	// here every registry is immutable, so the per-target /metrics text
	// re-fetched below describes exactly the bytes the rollup was
	// computed from.
	for _, e := range tb.Edges {
		e.Close()
	}
	now = now.Add(time.Second)
	final := sc.Collect(now)
	for _, s := range final {
		if s.Name == "pano_federation_unmergeable_families" {
			res.Unmergeable = int(s.Value)
		}
	}
	for _, ts := range sc.Targets() {
		if ts.Up {
			res.FinalUp++
		}
	}
	if res.FinalUp != res.Targets {
		return fail("%d/%d targets up at the final collect", res.FinalUp, res.Targets)
	}

	// The exactness contract: re-fetch every target's exposition text in
	// target-config order, re-accumulate counters and histograms with
	// the same left-to-right float order the scraper uses, and demand
	// bit-exact equality with the rollup.
	type hsum struct {
		count  uint64
		sum    float64
		counts []uint64
	}
	counterSums := map[string]float64{}
	histSums := map[string]*hsum{}
	for _, ts := range sc.Targets() {
		resp, err := http.Get(ts.URL)
		if err != nil {
			return fail("verification fetch %s: %v", ts.Instance, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return fail("verification read %s: %v", ts.Instance, err)
		}
		series, err := obs.ParsePrometheus(bytes.NewReader(body))
		if err != nil {
			return fail("verification parse %s: %v", ts.Instance, err)
		}
		for _, s := range series {
			key := s.Name + "\xff" + s.Key
			switch s.Type {
			case "counter":
				counterSums[key] += s.Value
			case "histogram":
				h := histSums[key]
				if h == nil {
					h = &hsum{counts: make([]uint64, len(s.Counts))}
					histSums[key] = h
				}
				if len(h.counts) == len(s.Counts) {
					for i, c := range s.Counts {
						h.counts[i] += c
					}
				}
				h.count += s.Count
				h.sum += s.Sum
			}
		}
	}
	for _, s := range sc.RollupSeries() {
		key := s.Name + "\xff" + s.Key
		switch s.Type {
		case "counter":
			res.CounterSeries++
			want, ok := counterSums[key]
			if !ok || want != s.Value {
				res.CounterMismatch++
			}
		case "histogram":
			res.HistSeries++
			h := histSums[key]
			if h == nil || h.count != s.Count || h.sum != s.Sum || len(h.counts) != len(s.Counts) {
				res.HistMismatch++
				continue
			}
			for i, c := range s.Counts {
				if h.counts[i] != c {
					res.HistMismatch++
					break
				}
			}
		}
	}
	if res.CounterSeries == 0 || res.HistSeries == 0 {
		return fail("rollup held no counters/histograms to verify (%d/%d)", res.CounterSeries, res.HistSeries)
	}
	if res.CounterMismatch != 0 || res.HistMismatch != 0 {
		return fail("federation not exact: %d/%d counter and %d/%d histogram series mismatched",
			res.CounterMismatch, res.CounterSeries, res.HistMismatch, res.HistSeries)
	}

	// One build across the whole fleet: every process (and obsd itself)
	// must export the same pano_build_info commit.
	commits := map[string]bool{}
	for _, s := range sc.InstanceSeries() {
		if s.Name == "pano_build_info" {
			for _, l := range s.Labels {
				if l.Key == "commit" {
					commits[l.Value] = true
				}
			}
		}
	}
	res.BuildVersions = len(commits)
	if res.BuildVersions != 1 {
		return fail("fleet reports %d distinct build commits, want 1", res.BuildVersions)
	}

	res.WallSec = time.Since(t0).Seconds()
	boolCell := func(b bool) string {
		if b {
			return "1"
		}
		return "0"
	}
	t := &Table{
		Title:    "Cluster observability plane: federated /metrics, fleet-wide SLOs, cross-process traces",
		Header:   []string{"metric", "value", "info"},
		Perfetto: export.Bytes(),
		Rows: [][]string{
			{"processes", f0(float64(res.Processes)), "2 origins + 2 edges + client"},
			{"scrape_targets", f0(float64(res.Targets)), "federated by obsd plane"},
			{"targets_up_final", f0(float64(res.FinalUp)), "after origin0 revival"},
			{"live_sessions", f0(float64(res.Sessions)), fmt.Sprintf("%d healthy + %d through the outage", clusterHealthySessions, clusterOutageSessions)},
			{"sim_sessions", f0(float64(res.SimSessions)), "starved link + tile loss, outage phase"},
			{"aborted", f0(float64(res.Aborted)), "failover kept every session alive"},
			{"counter_mismatches", f0(float64(res.CounterMismatch)), fmt.Sprintf("%d rollup counter series == per-process sums", res.CounterSeries)},
			{"histogram_mismatches", f0(float64(res.HistMismatch)), fmt.Sprintf("%d rollup histogram series bucket-exact", res.HistSeries)},
			{"unmergeable_families", f0(float64(res.Unmergeable)), "histogram layout skew across the fleet"},
			{"origin0_stale_seen", boolCell(res.Origin0StaleSeen), "target_up{origin0}=0 while killed; series frozen"},
			{"rebuffer_paged", boolCell(res.RebufferPageStep >= 0), fmt.Sprintf("page at step %d", res.RebufferPageStep)},
			{"rebuffer_recovered", boolCell(res.RebufferRecovered), "burn windows drained after revival"},
			{"breaker_paged", boolCell(res.BreakerPageStep >= 0), fmt.Sprintf("page at step %d; cluster-only signal (each edge sits at the <=1 ceiling)", res.BreakerPageStep)},
			{"breaker_recovered", boolCell(res.BreakerRecovered), "breakers re-closed, gauge sum back to 0"},
			{"trace_assembled", boolCell(res.TraceProcesses >= 3), fmt.Sprintf("%d processes, %d spans on one timeline; cluster.perfetto.json: %d events", res.TraceProcesses, res.TraceSpans, res.PerfettoEvents)},
			{"build_versions", f0(float64(res.BuildVersions)), "pano_build_info commit agrees fleet-wide"},
		},
	}
	return res, t, nil
}
