package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"pano"
	"pano/internal/abr"
	"pano/internal/chaos"
	"pano/internal/client"
	"pano/internal/codec"
	"pano/internal/fleet"
	"pano/internal/jnd"
	"pano/internal/manifest"
	"pano/internal/nettrace"
	"pano/internal/player"
	"pano/internal/swarm"
	"pano/internal/trace"
)

// swarmPopulation is the same session loop used the other way: a
// population in virtual time over the netem transport and the fleet
// twin, with the package-default (greedy) allocator. Engine,
// client.RunSession, netem and scoring are most of a session here; a
// change that speeds vod_session by making the shared loop heavier shows
// up on this workload as a loss.
type swarmPopulation struct {
	e   *env
	bv  *benchVideo
	man *manifest.Video
	kb  float64
	cfg pano.SwarmConfig
	sum pano.SwarmSummary // of the most recent pass
}

func (w *swarmPopulation) setup(e *env) error {
	w.e = e
	w.bv = newBenchVideo(e.size)
	m, err := w.bv.preprocess()
	if err != nil {
		return err
	}
	w.man = m
	if w.kb, err = manifestKiB(m); err != nil {
		return err
	}
	top := m.ChunkBits(0, 0) / m.ChunkSec / 1e6
	var bw []*nettrace.Trace
	for i, frac := range []float64{0.2, 0.35, 0.55, 0.8} {
		bw = append(bw, nettrace.SynthesizeLTE(contentSeed+uint64(i)*17, 120, frac*top))
	}
	w.cfg = pano.SwarmConfig{
		Manifest:         m,
		Sessions:         e.size.swarmSessions,
		Seed:             e.seed,
		ArrivalWindowSec: 30,
		Viewports:        w.bv.viewers,
		Bandwidth:        bw,
		// BENCH_swarm's fault rule and BENCH_fleet's outage shape.
		Fault: chaos.Rule{
			ErrorRate: 0.02, TruncateRate: 0.01,
			Latency: 20 * time.Millisecond, Jitter: 10 * time.Millisecond,
		},
		Fleet: &swarm.FleetConfig{
			Origins: 4,
			Breaker: fleet.BreakerConfig{FailureThreshold: 2, OpenFor: 2 * time.Second},
			Outages: []chaos.Down{{}, {After: 20 * time.Second, For: 30 * time.Second}},
		},
		ScoreEvery: 10,
	}
	w.cfg.Fetch.HedgeDelay = 150 * time.Millisecond
	return nil
}

func (w *swarmPopulation) close() {}

func (w *swarmPopulation) pass(tr *trace.Tracer) (passResult, error) {
	_, sp := tr.Start(context.Background(), "swarm.run")
	rep, err := pano.RunSwarm(context.Background(), w.cfg)
	sp.End()
	if err != nil {
		return passResult{}, err
	}
	w.sum = rep.Summary
	sum, err := json.Marshal(rep.Summary)
	if err != nil {
		return passResult{}, err
	}
	return passResult{ops: w.sum.Sessions, failed: w.sum.Errored, digest: string(sum)}, nil
}

func (w *swarmPopulation) quality() (metrics, error) {
	if w.sum.Sessions == 0 {
		return nil, fmt.Errorf("no pass has run")
	}
	return metrics{
		"pspnr_db_mean":  w.sum.MeanPSPNR,
		"rebuffer_pct":   w.sum.RebufferRatioPct,
		"startup_s_mean": w.sum.MeanStartupSec,
		"manifest_kb":    w.kb,
	}, nil
}

// verify checks the property the swarm's numbers rest on: the Summary
// is byte-identical between one worker and all of them.
func (w *swarmPopulation) verify() error {
	cfg := w.cfg
	cfg.Sessions = max(cfg.Sessions/10, 10)
	var sums [2][]byte
	for i, workers := range []int{1, runtime.NumCPU()} {
		cfg.Workers = workers
		rep, err := pano.RunSwarm(context.Background(), cfg)
		if err != nil {
			return err
		}
		if sums[i], err = json.Marshal(rep.Summary); err != nil {
			return err
		}
	}
	if !bytes.Equal(sums[0], sums[1]) {
		return fmt.Errorf("summary differs between 1 and %d workers", runtime.NumCPU())
	}
	return nil
}

func (w *swarmPopulation) layers(p *prober) error {
	g := p.got
	var err error
	// The differencing probes each rerun the population, so they use a
	// quarter of it. Shares are differences of whole runs, so the variants
	// take turns, three rounds, and each keeps its least disturbed time.
	base := w.cfg
	base.Sessions = max(w.cfg.Sessions/4, 10)
	one, scoreAll, scoreNone, bare := base, base, base, base
	one.Workers = 1
	scoreAll.ScoreEvery, scoreNone.ScoreEvery = 1, base.Sessions+1
	bare.Fleet, bare.Fault = nil, chaos.Rule{}
	variants := []struct {
		name string
		cfg  pano.SwarmConfig
	}{{"full", base}, {"w1", one}, {"score_all", scoreAll}, {"score_none", scoreNone}, {"no_fleet", bare}}
	sec := map[string]float64{}
	var full *pano.SwarmReport
	var oneStats [2]runtime.MemStats
	for round := 0; round < 3; round++ {
		for _, v := range variants {
			if v.name == "w1" && round == 0 {
				runtime.ReadMemStats(&oneStats[0])
			}
			var rep *pano.SwarmReport
			var err error
			d := p.timeUS("swarm.run_"+v.name, 1, func(context.Context, int) {
				rep, err = pano.RunSwarm(context.Background(), v.cfg)
			}) / 1e6
			if err != nil {
				return err
			}
			if v.name == "w1" && round == 0 {
				runtime.ReadMemStats(&oneStats[1])
			}
			if v.name == "full" {
				full = rep
			}
			if best, ok := sec[v.name]; !ok || d < best {
				sec[v.name] = d
			}
		}
	}
	n := float64(base.Sessions)
	oneSec := sec["w1"]
	g["swarm.sessions_per_s_w1"] = n / oneSec
	g["swarm.worker_scaling_x"] = oneSec / sec["full"]
	g["swarm.allocs_per_session"] = float64(oneStats[1].Mallocs-oneStats[0].Mallocs) / n
	g["swarm.bytes_per_session"] = float64(oneStats[1].TotalAlloc-oneStats[0].TotalAlloc) / n
	s := full.Summary
	g["swarm.virtual_per_wall_x"] = s.MeanConcurrency * s.VirtualSec / sec["full"]
	g["swarm.score_share"] = 1 - sec["score_none"]/sec["score_all"]
	g["swarm.fleet_share"] = 1 - sec["no_fleet"]/sec["full"]

	g["swarm.tile_requests"] = float64(s.OriginRequests)
	g["swarm.retries"] = float64(s.Retries)
	g["swarm.skipped_tiles"] = float64(s.SkippedTiles)
	g["swarm.failovers"] = float64(s.FleetFailovers)
	g["swarm.hedges"] = float64(s.FleetHedges)
	g["swarm.delivered_mbit_per_session"] = float64(s.Bytes) * 8 / 1e6 / n

	// The session loop alone: client.RunSession over a constant-rate
	// transport on a virtual clock, with the whole-video planner so the
	// loop is measured net of tile assignment.
	top := w.man.ChunkBits(0, 0) / w.man.ChunkSec
	g["client.run_session_us"] = p.timeUS("client.run_session", p.calls, func(_ context.Context, i int) {
		clk := swarm.NewVirtualClock(0)
		tp := &flatTransport{m: w.man, clk: clk, bps: top / 2}
		_, rerr := client.RunSession(context.Background(), tp, w.bv.viewers[i%len(w.bv.viewers)], client.StreamConfig{
			Planner: player.WholePlanner{}, SimModel: true, Clock: clk, MaxBufferSec: 3,
		})
		if rerr != nil && err == nil {
			err = rerr
		}
	})
	if err != nil {
		return err
	}

	// What the stand-in allocator costs per chunk on this population's
	// views, against one session's CPU.
	est, prof := player.NewEstimator(), jnd.Default()
	chunks := w.man.NumChunks()
	var views []player.ChunkView
	for i := 0; i < chunks*len(w.bv.viewers); i++ {
		k := i % chunks
		views = append(views, est.View(w.man, w.bv.viewers[i/chunks], k, float64(k)))
	}
	var rows []abr.TileChoice
	rowsUS := p.timeUS("player.cost_rows", p.calls, func(_ context.Context, i int) {
		rows = costRows(w.man, i%chunks, views[i%len(views)], prof)
	})
	budget := w.man.ChunkBits(0, codec.Level(codec.NumLevels/2))
	greedyUS := p.timeUS("abr.allocate_greedy", p.calls, func(context.Context, int) {
		abr.AllocateGreedy(rows, budget)
	})
	g["player.cost_rows_us"] = rowsUS
	g["abr.allocate_greedy_us"] = greedyUS
	g["swarm.plan_share"] = float64(chunks) * (rowsUS + greedyUS) / (oneSec / n * 1e6)
	return nil
}

// flatTransport delivers every object at a constant rate on a virtual
// clock: no faults, no link dynamics — the session loop's own cost.
type flatTransport struct {
	m   *manifest.Video
	clk *swarm.VirtualClock
	bps float64
}

func (t *flatTransport) Target() string { return "bench://flat" }

func (t *flatTransport) Manifest(context.Context) (*manifest.Video, error) { return t.m, nil }

func (t *flatTransport) Tile(_ context.Context, k, ti int, l codec.Level) (float64, error) {
	bits := t.m.Chunks[k].Tiles[ti].Bits[l]
	t.clk.AdvanceSec(bits / t.bps)
	return bits, nil
}
