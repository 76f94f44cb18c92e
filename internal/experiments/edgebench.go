package experiments

import (
	"context"
	"fmt"
	"time"

	"pano/internal/chaos"
	"pano/internal/client"
	"pano/internal/edge"
	"pano/internal/mathx"
	"pano/internal/obs"
	"pano/internal/provider"
	"pano/internal/testbed"
)

// EdgeArmResult summarizes one arm (direct-to-origin or via edge) of
// the edge-cache bench.
type EdgeArmResult struct {
	Arm             string
	Sessions        int
	Aborts          int
	OriginTileReqs  int64
	ClientTileReqs  int64
	ChunkP50Ms      float64 // per-chunk download time over the arm's sessions
	ChunkP99Ms      float64
	HitRatio        float64 // edge arm only
	CoalescedTile   float64 // edge arm only
	PrefetchWarmed  float64 // edge arm only
	CacheBytesUsed  int64   // edge arm only
	Evictions       float64 // edge arm only
	MeanEstPSPNR    float64
	MeanRebufferSec float64
}

// EdgeBenchResult is the BENCH_edge.json payload: the same concurrent
// session population streamed twice — straight at the origin, then
// through the caching edge — and the origin-offload that buys.
type EdgeBenchResult struct {
	Sessions    int
	Direct      EdgeArmResult
	Edge        EdgeArmResult
	OffloadFrac float64 // 1 - edge-origin-tile-reqs / direct-origin-tile-reqs
}

// edgeBenchSessions is fixed (not scale-derived): the acceptance target
// is origin offload for 20 concurrent overlapping viewers.
const edgeBenchSessions = 20

// sessionStagger is testbed.Sessions' launch spacing in the edge and
// fleet benches.
const sessionStagger = 15 * time.Millisecond

// originLatency injects a few milliseconds of per-tile latency at an
// origin, standing in for the client↔origin WAN hop an edge deployment
// shortcuts — large against loopback noise, small enough to keep a
// bench fast.
func (d *Dataset) originLatency(lat time.Duration) *chaos.Injector {
	return chaos.New(chaos.Profile{
		Seed: d.Scale.Seed,
		Tile: chaos.Rule{Latency: lat, Jitter: time.Millisecond},
	})
}

// EdgeBench streams 20 concurrent overlapping sessions twice — direct
// against a latency-injected origin, then through an internal/edge
// cache with cross-user prefetch — and reports origin offload (the
// fraction of tile fetches the edge absorbs) plus client-observed
// per-chunk download-time percentiles for both arms.
//
// The origin carries a small injected per-tile latency (chaos injector,
// loopback-scaled like ChaosBench) standing in for the client↔origin
// WAN hop an edge deployment shortcuts; ratios, not absolute
// milliseconds, are the result. A chunk's tile GETs go out together as
// one turn, so the latency a session waits on is a chunk's download
// time, not one request's. On few-core machines the p99 column is
// dominated by run-queue scheduling (40 goroutine sessions plus both
// servers share the cores), so p50 is the robust latency comparison;
// offload and hit ratio are unaffected.
func EdgeBench(d *Dataset) (EdgeBenchResult, *Table, error) {
	idx := d.TracedIndices()[0]
	m, err := d.Manifest(idx, provider.ModePano)
	if err != nil {
		return EdgeBenchResult{}, nil, err
	}
	traces := d.Traces(idx)

	// Loopback-scaled policy and rate cap, as in ChaosBench: decisions
	// must not depend on local throughput noise.
	pol := testbed.LoopbackPolicy()
	rateCap := testbed.RateCap(m)

	runArm := func(name string, viaEdge bool) (EdgeArmResult, error) {
		tb := testbed.New()
		defer tb.Close()
		origin, err := tb.AddOrigin(testbed.OriginConfig{Manifest: m, Chaos: d.originLatency(5 * time.Millisecond)})
		if err != nil {
			return EdgeArmResult{}, err
		}
		front := origin.URL
		var e *testbed.Edge
		reg := obs.NewRegistry()
		if viaEdge {
			e, err = tb.AddEdge(edge.Config{
				CacheBytes:     64 << 20,
				TTL:            5 * time.Minute,
				Fetch:          pol,
				PrefetchBudget: 32,
				Peers:          traces[:min(len(traces), 4)],
				Obs:            reg,
			})
			if err != nil {
				return EdgeArmResult{}, err
			}
			front = e.URL
		}

		clientReg := obs.NewRegistry() // counts the sessions' tile attempts
		ar := EdgeArmResult{Arm: name, Sessions: edgeBenchSessions}
		outs, aborts := testbed.Sessions(edgeBenchSessions, sessionStagger, func(u int) (*client.StreamResult, error) {
			p := pol
			p.Seed = uint64(u + 1)
			return tb.Client(front).Stream(context.Background(), traces[u%len(traces)], client.StreamConfig{
				MaxRateBps: rateCap,
				Fetch:      p,
				Obs:        clientReg,
			})
		})
		if e != nil {
			e.DrainPrefetch()
		}
		ar.Aborts = aborts
		var chunkMs []float64
		for _, out := range outs {
			ar.MeanEstPSPNR += out.MeanEstPSPNR()
			ar.MeanRebufferSec += out.RebufferSec
			for _, c := range out.Chunks {
				chunkMs = append(chunkMs, float64(c.Download.Microseconds())/1000)
			}
		}
		if len(outs) > 0 {
			ar.MeanEstPSPNR /= float64(len(outs))
			ar.MeanRebufferSec /= float64(len(outs))
		}
		ar.OriginTileReqs = origin.TileRequests()
		// Every tile attempt of every session, failed ones included.
		ar.ClientTileReqs = int64(clientReg.HistogramCount("pano_client_tile_attempt_seconds"))
		dl := mathx.NewCDF(chunkMs)
		ar.ChunkP50Ms = dl.Quantile(0.50)
		ar.ChunkP99Ms = dl.Quantile(0.99)
		if e != nil {
			ar.HitRatio = reg.GaugeValue("pano_edge_hit_ratio")
			ar.CoalescedTile = reg.CounterValue("pano_edge_coalesced_total", obs.L("endpoint", "tile"))
			ar.PrefetchWarmed = reg.CounterValue("pano_edge_prefetch_total", obs.L("result", "warmed"))
			ar.Evictions = reg.CounterValue("pano_edge_evictions_total")
			ar.CacheBytesUsed = e.CacheBytes()
		}
		return ar, nil
	}

	res := EdgeBenchResult{Sessions: edgeBenchSessions}
	if res.Direct, err = runArm("direct", false); err != nil {
		return res, nil, err
	}
	if res.Edge, err = runArm("edge", true); err != nil {
		return res, nil, err
	}
	if res.Direct.OriginTileReqs > 0 {
		res.OffloadFrac = 1 - float64(res.Edge.OriginTileReqs)/float64(res.Direct.OriginTileReqs)
	}

	t := &Table{
		Title: fmt.Sprintf("Edge cache tier: %d concurrent overlapping sessions, origin offload %.1f%%",
			res.Sessions, 100*res.OffloadFrac),
		Header: []string{"arm", "sessions", "aborts", "origin_tile_reqs", "client_tile_reqs",
			"chunk_p50_ms", "chunk_p99_ms", "hit_ratio", "coalesced", "prefetch_warmed", "mean_est_pspnr_db"},
	}
	for _, ar := range []EdgeArmResult{res.Direct, res.Edge} {
		hit, co, warm := "-", "-", "-"
		if ar.Arm == "edge" {
			hit, co, warm = f2(ar.HitRatio), f0(ar.CoalescedTile), f0(ar.PrefetchWarmed)
		}
		t.Rows = append(t.Rows, []string{
			ar.Arm,
			fmt.Sprintf("%d", ar.Sessions),
			fmt.Sprintf("%d", ar.Aborts),
			fmt.Sprintf("%d", ar.OriginTileReqs),
			fmt.Sprintf("%d", ar.ClientTileReqs),
			f2(ar.ChunkP50Ms),
			f2(ar.ChunkP99Ms),
			hit, co, warm,
			f1(ar.MeanEstPSPNR),
		})
	}
	return res, t, nil
}
