// Package sim runs trace-driven end-to-end streaming sessions (§8.1):
// a manifest (the encoded video), a user's viewpoint trace, a cellular
// bandwidth trace, and a quality-adaptation planner.
//
// The closed loop itself — MPC bitrate control, tile-level allocation,
// the fetch ladder, buffer dynamics — is client.RunSession, the same
// code an HTTP session runs, over client.VirtualNet — the virtual network
// every swarm session streams over too, so one function prices the link.
// This package supplies what makes a session simulated: the network's
// configuration (a free manifest, no attempt deadlines, an optional
// tile-loss model) and the ground-truth scorer. The session decides
// with what the client would know (predicted viewpoint, lower-bound
// factors, harmonic-mean bandwidth) and is scored with what it could
// not (the real trace, the real factors), so prediction error hurts
// exactly as it would in a deployment.
//
// The scorer runs beside the loop, on a goroutine of its own: the loop
// hands it each chunk's result and plans the next chunk while the last
// one is scored, so a session's critical path is its decisions.
package sim

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pano/internal/abr"
	"pano/internal/client"
	"pano/internal/codec"
	"pano/internal/jnd"
	"pano/internal/manifest"
	"pano/internal/mathx"
	"pano/internal/nettrace"
	"pano/internal/obs"
	"pano/internal/player"
	"pano/internal/quality"
	"pano/internal/scene"
	"pano/internal/trace"
	"pano/internal/viewport"
)

// Config tunes a session.
type Config struct {
	// BufferTargetSec is the MPC buffer target (the paper tests 1-3 s).
	// Prefetch is capped one chunk beyond it: deeper buffers stretch the
	// viewpoint-prediction horizon, which hurts every viewport-aware
	// scheme (§2.1's prefetch tension).
	BufferTargetSec float64
	// ViewNoiseDeg adds uniform random viewpoint shifts in [0, n]
	// degrees to the trace the *client* sees (§8.3 stress test);
	// scoring always uses the clean trace.
	ViewNoiseDeg float64
	// BWErrorFrac perturbs the client's bandwidth prediction by
	// ±frac, alternating sign per chunk (§8.3's throughput error).
	BWErrorFrac float64
	// Seed drives the noise.
	Seed uint64
	// TileLossRate is the probability that a tile request fails for
	// good before it reaches the link. A lost tile goes down the
	// client's degradation ladder (§7): re-fetched at the lowest level,
	// a fresh request that pays its own RTT, and if that draw fails too,
	// skipped and scored as stale content.
	// 0 disables the model entirely (no RNG draws).
	TileLossRate float64
	// Scene, when set, enables ground-truth quality scoring at unit-
	// tile granularity (independent of the system's tiling). Without
	// it, scoring falls back to the manifest's own tiles.
	Scene *scene.Video
	// Controller overrides the chunk-level bitrate algorithm (default:
	// the §6.1 MPC at BufferTargetSec; abr.NewBOLA is the alternative).
	Controller abr.Controller
	// FieldCache, when set, caches ground-truth content-JND fields
	// across chunks and sessions, keyed by video, frame and rect —
	// scoring many sessions of the same video stops recomputing
	// C(i,j). Hit/miss counters register in the cache's own registry
	// (see jnd.NewFieldCache); nil recomputes every field.
	FieldCache *jnd.FieldCache
	// Obs receives the session loop's pano_client_* QoE metrics plus the
	// ground-truth pano_sim_{chunk,session}_pspnr_db and
	// pano_sim_session_mos; nil disables instrumentation at zero cost.
	Obs *obs.Registry
	// Log receives the session loop's structured events and a closing
	// session_scored event with the ground-truth QoE; nil disables them.
	Log *obs.EventLog
	// Trace, when set, records the session as the loop's span tree —
	// session → chunk → {estimate, mpc, assign, fetch, stitch} — so
	// simulated and real sessions decompose identically in Perfetto.
	// nil disables tracing at zero cost.
	Trace *trace.Tracer
}

// DefaultConfig returns a session at the client's default buffer target.
func DefaultConfig() Config {
	return Config{BufferTargetSec: client.DefaultBufferTargetSec}
}

// StreamConfig returns the client parameters of a simulated session at MPC
// buffer target targetSec (0: the client's default), prefetch capped a
// second beyond it. Run streams under them, as every swarm session does.
func StreamConfig(targetSec float64) client.StreamConfig {
	if targetSec == 0 {
		targetSec = client.DefaultBufferTargetSec
	}
	return client.StreamConfig{BufferTargetSec: targetSec, MaxBufferSec: targetSec + 1}
}

// TablePSPNR is the table-model ground truth of chunk cr as delivered,
// scored from the manifest under est's ActualView over tr: Run's score
// without a scene, and the swarm's for the sessions it samples.
func TablePSPNR(m *manifest.Video, tr *viewport.Trace, cr *client.ChunkResult, est *player.Estimator, prof *jnd.Profile) float64 {
	return player.FramePSPNRDegraded(m, cr.Chunk, cr.Levels, cr.Stale, est.ActualView(m, tr, cr.Chunk), prof)
}

// Result summarizes one session.
type Result struct {
	System string
	// MeanPSPNR is the session-average viewport PSPNR (dB).
	MeanPSPNR float64
	// BufferingRatio is stall time over total watch time, percent.
	BufferingRatio float64
	// BandwidthMbps is total downloaded bits over the video duration.
	BandwidthMbps float64
	// StartupDelaySec is the first chunk's download time.
	StartupDelaySec float64
	// StallSec is the total rebuffering time.
	StallSec float64
	// PerChunkPSPNR is the delivered viewport PSPNR per chunk.
	PerChunkPSPNR []float64
	// PerChunkEstPSPNR is what the client estimated while planning —
	// the gap to PerChunkPSPNR is Figure 16(a)'s estimation error.
	PerChunkEstPSPNR []float64
	// PerChunkAlloc records the chosen level per tile per chunk, so
	// alternative metrics (plain PSNR, traditional PSPNR) can be
	// scored on the same delivered session afterwards.
	PerChunkAlloc []abr.Allocation
	// TotalBits is the session's downloaded volume.
	TotalBits float64
	// DegradedTiles and SkippedTiles count the degradation-ladder
	// outcomes under Config.TileLossRate (both 0 when the loss model is
	// off).
	DegradedTiles int
	SkippedTiles  int
	// TraceID is the hex id of the session's trace when Config.Trace is
	// set and the session was sampled ("" otherwise).
	TraceID string
}

// MOS returns the Table 3 opinion-score band of the session quality.
func (r *Result) MOS() int { return quality.MOSFromPSPNR(r.MeanPSPNR) }

// Run simulates one full playback session: client.RunSession over the
// link on a virtual clock, each chunk scored against the clean trace by
// a scorer that runs beside the loop on a goroutine of its own. Run
// returns, on every path, only after that goroutine has exited.
func Run(m *manifest.Video, tr *viewport.Trace, link *nettrace.Link, pl player.Planner, cfg Config) (*Result, error) {
	if m.NumChunks() == 0 {
		return nil, fmt.Errorf("sim: empty manifest")
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}

	// The client sees the possibly-noisy trace (§8.3); scoring always
	// uses the clean one.
	clientTrace := tr
	if cfg.ViewNoiseDeg > 0 {
		clientTrace = tr.AddNoise(cfg.ViewNoiseDeg, mathx.NewRNG(cfg.Seed+0x5eed))
	}
	res := &Result{System: pl.Name()}
	sc := startScorer(m, tr, cfg, res)
	defer sc.wait() // a session that panics leaves no scorer behind
	clk := client.NewVirtualClock(0)
	vn := &client.VirtualNet{Video: m, Clock: clk, Link: link}
	var tp client.Transport = vn
	if cfg.TileLossRate > 0 {
		tp = &lossyNet{VirtualNet: vn, rate: cfg.TileLossRate, rng: mathx.NewRNG(cfg.Seed + 0x10e55)}
	}

	scfg := StreamConfig(cfg.BufferTargetSec)
	scfg.Planner = pl
	scfg.Controller = cfg.Controller
	scfg.BWErrorFrac = cfg.BWErrorFrac
	scfg.ScoreChunk = sc.enqueue
	scfg.Obs, scfg.Log, scfg.Trace = cfg.Obs, cfg.Log, cfg.Trace
	scfg.Clock = clk
	// The simulated link never times a request out.
	scfg.Fetch = client.FetchPolicy{AttemptTimeout: time.Hour, MinAttemptTimeout: time.Hour}
	sess, err := client.RunSession(context.Background(), tp, clientTrace, scfg)
	sc.wait()
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}

	res.TraceID = sess.TraceID
	res.StartupDelaySec = sess.StartupDelay.Seconds()
	res.StallSec = sess.RebufferSec
	res.DegradedTiles = sess.DegradedTiles
	res.SkippedTiles = sess.SkippedTiles
	dur := m.DurationSec()
	var sum float64
	for _, p := range res.PerChunkPSPNR {
		sum += p
	}
	res.MeanPSPNR = sum / float64(len(res.PerChunkPSPNR))
	res.BufferingRatio = 100 * res.StallSec / (dur + res.StallSec)
	res.BandwidthMbps = res.TotalBits / dur / 1e6

	cfg.Obs.Gauge("pano_sim_session_pspnr_db", "session mean viewport PSPNR").Set(res.MeanPSPNR)
	cfg.Obs.Gauge("pano_sim_session_mos", "Table 3 opinion-score band of the session").Set(float64(res.MOS()))
	cfg.Log.Session("system", res.System, "video", m.Name).Info("session_scored",
		"mean_pspnr_db", res.MeanPSPNR, "mos", res.MOS(),
		"buffering_pct", res.BufferingRatio, "bandwidth_mbps", res.BandwidthMbps)
	return res, nil
}

// scorer is the ground-truth half of a session, run beside the loop on a
// goroutine of its own: RunSession hands it what was planned and what
// arrived, chunk by chunk, and goes on to plan the next chunk while the
// scorer scores this one. Its channel holds every chunk of the video, so
// the loop never waits on it.
type scorer struct {
	chunks chan scoreJob
	done   chan struct{}
	stop   sync.Once
}

// scoreJob is one chunk to score, and the span that shows its scoring
// (nil in an untraced session).
type scoreJob struct {
	cr   client.ChunkResult
	span *trace.Span
}

// startScorer starts the goroutine that scores a session's chunks into
// res, in chunk order: the delivered viewport PSPNR against the clean
// trace tr, the plan-time estimate under the client's best guess, the
// delivered levels and bits.
func startScorer(m *manifest.Video, tr *viewport.Trace, cfg Config, res *Result) *scorer {
	sc := &scorer{chunks: make(chan scoreJob, m.NumChunks()), done: make(chan struct{})}
	enc, est, prof := codec.NewEncoder(), player.NewEstimator(), jnd.Default()
	chunkPSPNR := cfg.Obs.Histogram("pano_sim_chunk_pspnr_db",
		"delivered per-chunk viewport PSPNR", quality.PSPNRBuckets)
	go func() {
		defer close(sc.done)
		for j := range sc.chunks {
			cr := &j.cr
			k := cr.Chunk
			var pspnr float64
			if cfg.Scene != nil {
				// Pixel-accurate scoring has no staleness model; stale tiles
				// are already pinned to the lowest level in cr.Levels, which
				// underestimates their distortion slightly.
				pspnr = pixelFramePSPNR(m, cfg.Scene, k, cr.Levels, tr, prof, enc, cfg.FieldCache)
			} else {
				pspnr = TablePSPNR(m, tr, cr, est, prof)
			}
			// The client's plan-time estimate uses its best-guess view
			// (Figure 16a measures the gap to pspnr) and predates any
			// transport loss, so it scores the planned allocation.
			estimated := player.FramePSPNR(m, k, cr.Planned, cr.Guess, prof)

			j.span.Annotate(trace.A("pspnr_db", pspnr))
			j.span.End()
			chunkPSPNR.Observe(pspnr)
			res.PerChunkPSPNR = append(res.PerChunkPSPNR, pspnr)
			res.PerChunkEstPSPNR = append(res.PerChunkEstPSPNR, estimated)
			res.PerChunkAlloc = append(res.PerChunkAlloc, cr.Levels)
			res.TotalBits += cr.Bits
		}
	}()
	return sc
}

// enqueue is the session's ScoreChunk: it copies the chunk's result (the
// slices it holds are the chunk's own and never written again), opens a
// "score" span under the chunk's stitch span, and returns.
func (sc *scorer) enqueue(ctx context.Context, cr *client.ChunkResult) {
	_, span := trace.StartSpan(ctx, "score")
	sc.chunks <- scoreJob{cr: *cr, span: span}
}

// wait closes the scorer's queue and returns when every chunk handed to
// it is scored and its goroutine has exited. It may be called again.
func (sc *scorer) wait() {
	sc.stop.Do(func() { close(sc.chunks) })
	<-sc.done
}

// lossyNet is the session's network under Config.TileLossRate: a lost
// tile request answers 404 before it reaches the link — a final answer
// the fetch ladder does not retry at the same rung, so one draw decides
// each rung (planned level, then lowest level, then skip) and a lost
// request costs no link time.
type lossyNet struct {
	*client.VirtualNet
	rate float64
	rng  *mathx.RNG
}

// Tile implements client.Transport.
func (t *lossyNet) Tile(ctx context.Context, k, ti int, l codec.Level) (float64, error) {
	if t.rng.Float64() < t.rate {
		return 0, &client.StatusError{Code: 404}
	}
	return t.VirtualNet.Tile(ctx, k, ti, l)
}
