// Package sim runs trace-driven end-to-end streaming sessions (§8.1):
// a manifest (the encoded video), a user's viewpoint trace, a cellular
// bandwidth trace, and a quality-adaptation planner.
//
// The closed loop itself — MPC bitrate control, tile-level allocation,
// the fetch ladder, buffer dynamics — is client.RunSession, the same
// code an HTTP session runs. This package supplies what makes a session
// simulated: a Transport that turns nettrace.Link into download time on
// a virtual clock, and the ground-truth scorer. The session decides
// with what the client would know (predicted viewpoint, lower-bound
// factors, harmonic-mean bandwidth) and is scored with what it could
// not (the real trace, the real factors), so prediction error hurts
// exactly as it would in a deployment.
package sim

import (
	"context"
	"fmt"
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
	// good in the simulated transport. A lost tile goes down the
	// client's degradation ladder (§7): re-fetched at the lowest level,
	// and if that draw fails too, skipped and scored as stale content.
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

// DefaultConfig returns a 2 s buffer target session.
func DefaultConfig() Config {
	return Config{BufferTargetSec: 2}
}

func (c *Config) fillDefaults() {
	if c.BufferTargetSec == 0 {
		c.BufferTargetSec = 2
	}
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
// link on a virtual clock, each chunk scored against the clean trace.
func Run(m *manifest.Video, tr *viewport.Trace, link *nettrace.Link, pl player.Planner, cfg Config) (*Result, error) {
	cfg.fillDefaults()
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
	enc, est, prof := codec.NewEncoder(), player.NewEstimator(), jnd.Default()
	chunkPSPNR := cfg.Obs.Histogram("pano_sim_chunk_pspnr_db",
		"delivered per-chunk viewport PSPNR", quality.PSPNRBuckets)
	// score is the ground-truth half of the session: RunSession hands
	// it what was planned and what arrived, chunk by chunk.
	score := func(ctx context.Context, cr *client.ChunkResult) {
		k := cr.Chunk
		var pspnr float64
		if cfg.Scene != nil {
			// Pixel-accurate scoring has no staleness model; stale tiles
			// are already pinned to the lowest level in cr.Levels, which
			// underestimates their distortion slightly.
			pspnr = pixelFramePSPNR(m, cfg.Scene, k, cr.Levels, tr, prof, enc, cfg.FieldCache)
		} else {
			pspnr = player.FramePSPNRDegraded(m, k, cr.Levels, cr.Stale, est.ActualView(m, tr, k), prof)
		}
		// The client's plan-time estimate uses its best-guess view
		// (Figure 16a measures the gap to pspnr) and predates any
		// transport loss, so it scores the planned allocation.
		guess := est.BestGuessView(m, clientTrace, k, cr.PlayheadSec)
		estimated := player.FramePSPNR(m, k, cr.Planned, guess, prof)

		trace.FromContext(ctx).Annotate("pspnr_db", pspnr)
		chunkPSPNR.Observe(pspnr)
		res.PerChunkPSPNR = append(res.PerChunkPSPNR, pspnr)
		res.PerChunkEstPSPNR = append(res.PerChunkEstPSPNR, estimated)
		res.PerChunkAlloc = append(res.PerChunkAlloc, cr.Levels)
		res.TotalBits += cr.Bits
	}
	clk := client.NewVirtualClock(0)
	tp := &linkTransport{m: m, link: link, clk: clk, chunk: -1, lossRate: cfg.TileLossRate}
	if cfg.TileLossRate > 0 {
		tp.loss = mathx.NewRNG(cfg.Seed + 0x10e55)
	}

	sess, err := client.RunSession(context.Background(), tp, clientTrace, client.StreamConfig{
		BufferTargetSec: cfg.BufferTargetSec,
		MaxBufferSec:    cfg.BufferTargetSec + 1,
		SimModel:        true,
		Planner:         pl,
		Controller:      cfg.Controller,
		BWErrorFrac:     cfg.BWErrorFrac,
		ScoreChunk:      score,
		Obs:             cfg.Obs,
		Log:             cfg.Log,
		Trace:           cfg.Trace,
		Clock:           noDeadlineClock{clk},
	})
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

// linkTransport is the simulator's client.Transport: one emulated link
// carrying each chunk as one pipelined transfer. Every delivered tile
// moves the virtual clock to chunkStart + DownloadTime(chunkStart,
// bits delivered so far), so a chunk's total is the link's time for all
// of its bits with the RTT charged once — not once per tile.
type linkTransport struct {
	m    *manifest.Video
	link *nettrace.Link
	clk  *client.VirtualClock

	// The transfer in progress: chunk index, the virtual time of its
	// first request, and the bits delivered since.
	chunk    int
	start    time.Time
	startSec float64
	bits     float64

	// lossRate is Config.TileLossRate; loss is nil when it is 0, so a
	// lossless session draws nothing.
	lossRate float64
	loss     *mathx.RNG
}

// Target implements client.Transport.
func (t *linkTransport) Target() string { return "sim://link" }

// Manifest implements client.Transport; the manifest is already on the
// client, so it costs no link time.
func (t *linkTransport) Manifest(context.Context) (*manifest.Video, error) { return t.m, nil }

// Tile implements client.Transport. A lost tile answers 404: a final
// answer the fetch ladder does not retry at the same rung, so one draw
// decides each rung — planned level, then lowest level, then skip —
// and costs no link time.
func (t *linkTransport) Tile(_ context.Context, k, ti int, l codec.Level) (float64, error) {
	if k != t.chunk {
		t.chunk, t.start, t.startSec, t.bits = k, t.clk.Now(), t.clk.NowSec(), 0
	}
	if t.loss != nil && t.loss.Float64() < t.lossRate {
		return 0, &client.StatusError{Code: 404}
	}
	bits := t.m.Chunks[k].Tiles[ti].Bits[l]
	t.bits += bits
	dl := t.link.DownloadTime(t.startSec, t.bits)
	t.clk.AdvanceTo(t.start.Add(time.Duration(dl * float64(time.Second))))
	return bits, nil
}

// noDeadlineClock is the virtual clock minus attempt deadlines: the
// simulated link never times a request out, so none is installed.
type noDeadlineClock struct{ *client.VirtualClock }

// WithTimeout implements client.Clock.
func (noDeadlineClock) WithTimeout(ctx context.Context, _ time.Duration) (context.Context, context.CancelFunc) {
	return ctx, func() {}
}
