package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"pano"
	"pano/internal/abr"
	"pano/internal/codec"
	"pano/internal/jnd"
	"pano/internal/manifest"
	"pano/internal/obs"
	"pano/internal/player"
	"pano/internal/trace"
)

// vodSession is the client-adaptation workload: every viewer watches the
// bench video over each constrained link through pano.Simulate with the
// paper's pruned §6.1 planner, one session after another on one thread.
// PanoPlanner.Plan is ≈99 % of a session, so an allocator change must
// show here and nowhere else.
type vodSession struct {
	e    *env
	bv   *benchVideo
	man  *manifest.Video
	kb   float64
	sess []session // one pass, in this seed's order
	last metrics   // quality rows of the most recent pass
}

// session is one viewer watching over one link.
type session struct {
	viewer int
	link   *pano.Link
}

func (w *vodSession) setup(e *env) error {
	bv := newBenchVideo(e.size)
	m, err := bv.preprocess()
	if err != nil {
		return err
	}
	kb, err := manifestKiB(m)
	if err != nil {
		return err
	}
	*w = *newVodSession(e, bv, m, kb)
	return nil
}

// linkJitter is how far the seed moves each link fraction from its
// operating point. Startup delay depends on the link alone, so over a
// fixed pool of link traces its mean would read the same for every seed;
// ±0.5 % moves it by ±0.3 % and the other quality rows by less than
// their seed-to-seed spread already is.
const linkJitter = 0.005

// newVodSession prepares the session set for a manifest of the bench
// video, however that manifest was obtained. Every viewer watches once at
// each link fraction; the link traces at a fraction are a fixed pool of
// one per viewer, and the seed decides the fraction's exact rate, which
// viewer gets which trace and the order the sessions run in.
func newVodSession(e *env, bv *benchVideo, m *manifest.Video, kb float64) *vodSession {
	w := &vodSession{e: e, bv: bv, man: m, kb: kb}
	rng := rand.New(rand.NewSource(int64(e.seed)))
	for _, f := range e.size.linkFracs {
		f *= 1 + linkJitter*(2*rng.Float64()-1)
		for u, j := range rng.Perm(len(bv.viewers)) {
			w.sess = append(w.sess, session{viewer: u, link: pano.ScaledLink(m, f, contentSeed+uint64(j))})
		}
	}
	rng.Shuffle(len(w.sess), func(i, j int) { w.sess[i], w.sess[j] = w.sess[j], w.sess[i] })
	return w
}

// referenceViewing is how the workloads without viewers of their own
// fill the quality rows: the vod_session set, run once and untimed, on
// the manifest that workload published or served. It gates the quality
// of what the provider path produces.
func referenceViewing(e *env, bv *benchVideo, m *manifest.Video, kb float64) (metrics, error) {
	w := newVodSession(e, bv, m, kb)
	if _, err := w.pass(nil); err != nil {
		return nil, err
	}
	return w.quality()
}

func (w *vodSession) close() {}

func (w *vodSession) pass(tr *trace.Tracer) (passResult, error) {
	return w.sessions(tr, pano.DefaultSimConfig())
}

// sessions runs every (viewer, link) session once under cfg.
func (w *vodSession) sessions(tr *trace.Tracer, cfg pano.SimConfig) (passResult, error) {
	var pr passResult
	var pspnr, stall, startup, bits float64
	h := sha256.New()
	for _, se := range w.sess {
		_, sp := tr.Start(context.Background(), "sim.session")
		t0 := time.Now()
		res, err := pano.Simulate(w.man, w.bv.viewers[se.viewer], se.link, pano.NewPanoPlanner(), cfg)
		pr.lat = append(pr.lat, time.Since(t0))
		sp.End()
		pr.ops++
		if err != nil {
			return pr, err
		}
		if !w.sessionOK(res) {
			pr.failed++
		}
		pspnr += res.MeanPSPNR
		stall += res.StallSec
		startup += res.StartupDelaySec
		bits += res.TotalBits
		for _, v := range []float64{res.MeanPSPNR, res.TotalBits, res.StallSec, res.StartupDelaySec} {
			fmt.Fprintf(h, "%x ", math.Float64bits(v))
		}
	}
	n := float64(pr.ops)
	watch := n * w.man.DurationSec()
	w.last = metrics{
		"pspnr_db_mean":  pspnr / n,
		"rebuffer_pct":   100 * stall / (watch + stall),
		"startup_s_mean": startup / n,
		"manifest_kb":    w.kb,
	}
	pr.counts = map[string]float64{"delivered_bits": bits}
	pr.digest = hex.EncodeToString(h.Sum(nil))
	return pr, nil
}

func (w *vodSession) quality() (metrics, error) {
	if w.last == nil {
		return nil, fmt.Errorf("no pass has run")
	}
	return w.last, nil
}

// sessionOK checks the shape of a session result: every chunk played,
// one valid level per tile, a finite score.
func (w *vodSession) sessionOK(res *pano.SessionResult) bool {
	if len(res.PerChunkAlloc) != w.man.NumChunks() || math.IsNaN(res.MeanPSPNR) || res.MeanPSPNR <= 0 {
		return false
	}
	for k, a := range res.PerChunkAlloc {
		if len(a) != len(w.man.Chunks[k].Tiles) {
			return false
		}
		for _, l := range a {
			if !l.Valid() {
				return false
			}
		}
	}
	return true
}

// verify steps one session's chunk loop and checks every plan against
// its budget.
func (w *vodSession) verify() error {
	se := w.sess[0]
	res, err := pano.Simulate(w.man, w.bv.viewers[se.viewer], se.link, pano.NewPanoPlanner(), pano.DefaultSimConfig())
	if err != nil {
		return err
	}
	_, err = w.stepped(context.Background(), se, res, player.NewPanoPlanner())
	return err
}

// steppedSums carries what one stepped session adds up.
type steppedSums struct {
	prunedCost, greedyCost float64
}

// stepped walks the chunk loop of one session from outside, one
// exported call per phase, each inside its own span under ctx. res is
// the real session's result: its delivered bits per chunk are the
// budgets, so the allocators face the problems the session faced. It
// fails when a plan overspends its budget.
func (w *vodSession) stepped(ctx context.Context, se session, res *pano.SessionResult, pl *player.PanoPlanner) (steppedSums, error) {
	var sums steppedSums
	m, tr := w.man, w.bv.viewers[se.viewer]
	cfg := pano.DefaultSimConfig()
	est := player.NewEstimator()
	mpc := abr.NewMPC(cfg.BufferTargetSec)
	prof := jnd.Default()
	predBps := res.BandwidthMbps * 1e6
	prev := codec.Level(codec.NumLevels - 1)
	for k := 0; k < m.NumChunks(); k++ {
		cctx, chunk := trace.StartSpan(ctx, "sim.chunk", trace.A("chunk", k))
		now := math.Max(0, float64(k)*m.ChunkSec-cfg.BufferTargetSec)

		_, sp := trace.StartSpan(cctx, "player.estimate")
		view := est.View(m, tr, k, now)
		sp.End()

		var horizon []abr.ChunkPlan
		for j := k; j < k+mpc.Horizon && j < m.NumChunks(); j++ {
			var p abr.ChunkPlan
			for l := 0; l < codec.NumLevels; l++ {
				p.Bits[l] = m.ChunkBits(j, codec.Level(l))
				p.Quality[l] = player.MeanRefPSPNR(m, j, codec.Level(l)) / 10
			}
			horizon = append(horizon, p)
		}
		_, sp = trace.StartSpan(cctx, "abr.mpc")
		prev = mpc.PickLevel(cfg.BufferTargetSec, predBps, m.ChunkSec, prev, horizon)
		sp.End()

		var budget float64
		for i, l := range res.PerChunkAlloc[k] {
			budget += m.Chunks[k].Tiles[i].Bits[l]
		}

		_, sp = trace.StartSpan(cctx, "player.cost_rows")
		rows := costRows(m, k, view, prof)
		sp.End()

		_, sp = trace.StartSpan(cctx, "abr.allocate_pruned")
		pruned := abr.AllocatePruned(rows, budget, 0)
		sp.End()
		if err := withinBudget(rows, pruned, budget); err != nil {
			chunk.End()
			return sums, fmt.Errorf("viewer %d chunk %d pruned: %w", se.viewer, k, err)
		}

		_, sp = trace.StartSpan(cctx, "player.score")
		player.ViewportPSPNR(m, k, pruned, est.ActualView(m, tr, k), prof)
		sp.End()
		chunk.End()

		// Off the session's path: the stand-in allocator and the whole
		// planner call on the same problem.
		_, sp = trace.StartSpan(ctx, "abr.allocate_greedy")
		greedy := abr.AllocateGreedy(rows, budget)
		sp.End()
		if err := withinBudget(rows, greedy, budget); err != nil {
			return sums, fmt.Errorf("viewer %d chunk %d greedy: %w", se.viewer, k, err)
		}
		_, sp = trace.StartSpan(ctx, "player.plan")
		plan := pl.Plan(m, k, view, budget)
		sp.End()
		if err := withinBudget(rows, plan, budget); err != nil {
			return sums, fmt.Errorf("viewer %d chunk %d plan: %w", se.viewer, k, err)
		}
		sums.prunedCost += abr.TotalCost(rows, pruned)
		sums.greedyCost += abr.TotalCost(rows, greedy)
	}
	return sums, nil
}

// costRows builds the allocator's input for chunk k the way the planner
// does, from the player package's exported pieces: N tiles × 5 levels.
func costRows(m *manifest.Video, k int, view player.ChunkView, prof *jnd.Profile) []abr.TileChoice {
	rows := make([]abr.TileChoice, len(m.Chunks[k].Tiles))
	for i := range m.Chunks[k].Tiles {
		t := &m.Chunks[k].Tiles[i]
		ratio := prof.ActionRatio(player.FactorsFor(t, view))
		area := float64(t.Rect.Area())
		for l := 0; l < codec.NumLevels; l++ {
			rows[i].Bits[l] = t.Bits[l]
			rows[i].Cost[l] = area * player.PMSEFromPSPNR(player.EstimatePSPNR(t, codec.Level(l), ratio))
		}
	}
	return rows
}

// withinBudget accepts a plan that fits the budget, or the all-lowest
// plan when even that does not fit.
func withinBudget(rows []abr.TileChoice, a abr.Allocation, budget float64) error {
	if len(a) != len(rows) {
		return fmt.Errorf("plan has %d levels for %d tiles", len(a), len(rows))
	}
	if bits := abr.TotalBits(rows, a); bits > budget {
		for _, l := range a {
			if l != codec.Level(codec.NumLevels-1) {
				return fmt.Errorf("plan spends %.0f bits of a %.0f budget", bits, budget)
			}
		}
	}
	return nil
}

func (w *vodSession) layers(p *prober) error {
	pl := player.NewPanoPlanner()
	var sums steppedSums
	var bits float64
	var firstErr error
	// Each real session is followed at once by its stepped twin, so the
	// two see the same machine and the phases can be set against the whole.
	ts := p.run("sim.session_pair", len(w.sess), func(ctx context.Context, i int) {
		se := w.sess[i]
		_, sp := trace.StartSpan(ctx, "sim.session")
		res, err := pano.Simulate(w.man, w.bv.viewers[se.viewer], se.link, pano.NewPanoPlanner(), pano.DefaultSimConfig())
		sp.End()
		if err == nil {
			var s steppedSums
			sctx, sp := trace.StartSpan(ctx, "sim.stepped_session")
			s, err = w.stepped(sctx, se, res, pl)
			sp.End()
			sums.prunedCost += s.prunedCost
			sums.greedyCost += s.greedyCost
			bits += res.TotalBits
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	})
	if firstErr != nil {
		return firstErr
	}
	g := p.got
	g["player.estimate_us"] = medianUS(spanDurations(ts, "player.estimate"))
	g["abr.mpc_us"] = medianUS(spanDurations(ts, "abr.mpc"))
	g["player.cost_rows_us"] = medianUS(spanDurations(ts, "player.cost_rows"))
	g["abr.allocate_pruned_us"] = medianUS(spanDurations(ts, "abr.allocate_pruned"))
	g["abr.allocate_greedy_us"] = medianUS(spanDurations(ts, "abr.allocate_greedy"))
	g["player.plan_us"] = medianUS(spanDurations(ts, "player.plan"))
	g["player.score_us"] = medianUS(spanDurations(ts, "player.score"))
	g["abr.greedy_gap_pct"] = 100 * (sums.greedyCost/sums.prunedCost - 1)
	var self []time.Duration
	var planTotal, sessTotal time.Duration
	for _, td := range ts {
		session, plan := sumSpans(td, "sim.session"), sumSpans(td, "player.plan")
		self = append(self, session-plan-sumSpans(td, "player.estimate", "abr.mpc", "player.score"))
		planTotal += plan
		sessTotal += session
	}
	g["sim.session_us"] = medianUS(spanDurations(ts, "sim.session"))
	g["sim.self_us"] = medianUS(self)
	g["player.plan_share"] = planTotal.Seconds() / sessTotal.Seconds()
	g["sim.delivered_mbit_per_session"] = bits / 1e6 / float64(len(ts))

	// Heap traffic of the allocator and of the whole planner call, on
	// the first chunk's problem.
	view := player.NewEstimator().View(w.man, w.bv.viewers[0], 0, 0)
	rows := costRows(w.man, 0, view, jnd.Default())
	budget := w.man.ChunkBits(0, codec.Level(codec.NumLevels/2))
	calls := max(p.calls/10, 1)
	g["abr.allocate_pruned_allocs"], g["abr.allocate_pruned_bytes"] = p.allocs(calls, func(int) {
		abr.AllocatePruned(rows, budget, 0)
	})
	g["player.plan_allocs"], _ = p.allocs(calls, func(int) { pl.Plan(w.man, 0, view, budget) })

	// What watching costs: the same pass with metrics, events and spans
	// attached, against the bare pass (ROADMAP budget: ≤ 2 %).
	var bare, watched []float64
	for r := 0; r < 2; r++ {
		t0 := time.Now()
		if _, err := w.sessions(nil, pano.DefaultSimConfig()); err != nil {
			return err
		}
		bare = append(bare, time.Since(t0).Seconds())
		cfg := pano.DefaultSimConfig()
		cfg.Obs = obs.NewRegistry()
		cfg.Log = obs.NewEventLog(nil, 0)
		cfg.Trace = trace.New(trace.Config{Seed: w.e.seed})
		t0 = time.Now()
		if _, err := w.sessions(nil, cfg); err != nil {
			return err
		}
		watched = append(watched, time.Since(t0).Seconds())
	}
	g["obs.session_overhead_pct"] = 100 * (slices.Min(watched)/slices.Min(bare) - 1)
	return nil
}

func manifestKiB(m *manifest.Video) (float64, error) {
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		return 0, err
	}
	return float64(buf.Len()) / 1024, nil
}
