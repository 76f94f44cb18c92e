package client

import (
	"context"
	"errors"
	"log/slog"
	"math"
	"strconv"
	"time"

	"pano/internal/codec"
	"pano/internal/manifest"
	"pano/internal/obs"
	"pano/internal/quality"
	"pano/internal/trace"
)

// watcher records one session: every metric, event and span RunSession
// and its fetch ladder emit goes through it, so the loop names none.
// RunSession builds one from StreamConfig's Obs, Log and Trace (or a
// span its ctx carries) and calls it at its own steps, the end on every
// exit path. A nil watcher, an unwatched session's, records nothing,
// and no call on it boxes or allocates. A label-free family registers
// when the manifest arrives; a labelled series, or a family only live
// sessions feed, when its first value occurs.
type watcher struct {
	reg     *obs.Registry
	log     *slog.Logger // nil without an event log
	clk     Clock
	start   time.Time
	planner string
	// span is the session span cfg.Trace started; traceHex is the trace
	// every span of the session is in ("" untraced), each exemplar's.
	span     *trace.Span
	traceHex string
	// chunk and phase are the running chunk's last spans (a second End is
	// a no-op), timer times the phase, slowTile had its fetch's slowest.
	chunk, phase *trace.Span
	timer        obs.Timer
	slowTile     int
	slowest      time.Duration

	chunks, bytes, rebuf, plans, degraded, skipped *obs.Counter
	download, est, planS, pickS, bwErrs, attempts  *obs.Histogram
	buffer, liveLat                                *obs.Gauge
	picks                                          [codec.NumLevels]*obs.Counter // by level
}

// watch returns ctx, with the session span started when cfg.Trace is
// set; the watcher of a session under cfg (Planner and Clock set)
// against target, nil when nothing watches it; and the span's trace id.
func watch(ctx context.Context, cfg *StreamConfig, target string) (context.Context, *watcher, string) {
	if cfg.Obs == nil && cfg.Log == nil && cfg.Trace == nil && trace.FromContext(ctx) == nil {
		return ctx, nil, ""
	}
	w := &watcher{reg: cfg.Obs, clk: cfg.Clock, start: cfg.Clock.Now(), planner: cfg.Planner.Name()}
	if cfg.Log != nil {
		w.log = cfg.Log.Session("planner", w.planner, "base_url", target)
	}
	if cfg.Trace != nil {
		ctx, w.span = cfg.Trace.Start(ctx, "session",
			trace.A("component", "client"), trace.A("planner", w.planner), trace.A("base_url", target))
		if w.log != nil {
			w.log = w.log.With("trace_id", w.span.TraceHex())
		}
	}
	w.traceHex = trace.FromContext(ctx).TraceHex()
	return ctx, w, w.span.TraceHex()
}

// event logs msg at level, when the session has an event log.
func (w *watcher) event(level slog.Level, msg string, args ...any) {
	if w.log != nil {
		w.log.Log(context.Background(), level, msg, args...)
	}
}

// streaming records manifest m's arrival: the session's events carry
// the video from here on, and its label-free families register.
func (w *watcher) streaming(m *manifest.Video) {
	if w == nil {
		return
	}
	if w.log != nil {
		tiles0 := 0
		if len(m.Chunks) > 0 {
			tiles0 = len(m.Chunks[0].Tiles)
		}
		w.log = w.log.With("video", m.Name, "chunks", m.NumChunks(), "tiles", tiles0)
		if m.Live {
			w.log = w.log.With("live", true)
		}
	}
	r, lbl := w.reg, obs.L("planner", w.planner)
	w.chunks = r.Counter("pano_client_chunks_total", "chunks streamed")
	w.bytes = r.Counter("pano_client_bytes_total", "media bytes downloaded")
	w.rebuf = r.Counter("pano_client_rebuffer_seconds_total", "total stall seconds")
	w.download = r.Histogram("pano_client_chunk_download_seconds", "per-chunk download time over HTTP", nil)
	w.est = r.Histogram("pano_client_est_pspnr_db", "client-estimated per-chunk viewport PSPNR", quality.PSPNRBuckets)
	w.buffer = r.Gauge("pano_client_buffer_sec", "playback buffer after each chunk")
	w.plans = r.Counter("pano_planner_plans_total", "tile-level allocation calls by planner", lbl)
	w.planS = r.Histogram("pano_planner_plan_seconds", "tile-level allocation latency by planner", nil, lbl)
	w.pickS = r.Histogram("pano_abr_decision_seconds", "chunk-level bitrate decision latency", nil)
	w.bwErrs = r.Histogram("pano_abr_bw_prediction_error_ratio", // 0 is perfect; the paper stresses up to 40%
		"relative error of the harmonic-mean bandwidth prediction vs the next measured throughput",
		[]float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.8, 1.6})
	w.attempts = r.Histogram("pano_client_tile_attempt_seconds", "per-attempt tile download latency (including failed attempts)", nil)
	w.degraded = r.Counter("pano_client_tiles_degraded_total", "tiles delivered at the lowest level after planned-level failures")
	w.skipped = r.Counter("pano_client_tiles_skipped_total", "tiles abandoned after the full degradation ladder")
}

// liveSynced records a live-edge sync: the stall it read off the playout
// ledger, and its wait.
func (w *watcher) liveSynced(stall, waited time.Duration) {
	if w != nil {
		w.rebuf.Add(stall.Seconds())
		if waited > 0 {
			w.reg.Counter("pano_client_live_edge_wait_seconds_total", "seconds spent blocked at the live edge").Add(waited.Seconds())
		}
	}
}

// liveSkip records the catch-up policy moving the session on from chunk
// from to chunk to.
func (w *watcher) liveSkip(reason string, from, to int) {
	if w != nil {
		w.reg.Counter("pano_client_live_skips_total", "chunks skipped by the live catch-up policy").Add(float64(to - from))
		w.event(slog.LevelInfo, "live_skip", "reason", reason, "from", from, "to", to)
	}
}

// liveTimeout records the session giving up at chunk k's edge, quiet
// after it last moved.
func (w *watcher) liveTimeout(k int, quiet time.Duration) {
	if w != nil {
		w.event(slog.LevelWarn, "live_edge_timeout", "chunk", k, "waited_sec", quiet.Seconds())
		w.reg.Counter("pano_client_live_edge_timeouts_total", "sessions that gave up waiting for the live edge to move").Inc()
	}
}

// liveRefreshFailed records a manifest refresh at the edge failing.
func (w *watcher) liveRefreshFailed(err error) {
	if w != nil {
		w.event(slog.LevelDebug, "live_refresh_error", "error", err.Error())
	}
}

// chunkStart opens chunk k's span under ctx and returns its context.
func (w *watcher) chunkStart(ctx context.Context, k int) context.Context {
	if w != nil && w.traceHex != "" {
		ctx, w.chunk = trace.StartSpan(ctx, "chunk", trace.A("chunk", k))
	}
	return ctx
}

// open starts the chunk's next phase under the chunk's ctx — "estimate",
// "mpc", "assign", "fetch" or "stitch" — and returns its context.
func (w *watcher) open(ctx context.Context, phase string) context.Context {
	if w == nil {
		return ctx
	}
	w.slowTile, w.slowest = 0, 0
	if w.traceHex != "" {
		ctx, w.phase = trace.StartSpan(ctx, phase)
	}
	w.timer = obs.NewTimer(nil) // after the span: a phase's seconds time its own work only
	return ctx
}

// estimated closes the estimate phase with the bandwidth prediction.
func (w *watcher) estimated(predBps float64) {
	if w != nil && w.phase != nil {
		w.phase.Annotate(trace.A("pred_bps", predBps))
		w.phase.End()
	}
}

// picked closes the chunk-level decision (§6.1's MPC step, or the
// session's Controller) with its inputs and the level it picked.
func (w *watcher) picked(bufferSec, predBps float64, lv codec.Level, horizon int) {
	if w == nil {
		return
	}
	w.pickS.ObserveExemplar(w.timer.ObserveDuration().Seconds(), w.traceHex)
	if w.phase != nil {
		w.phase.Annotate(trace.A("buffer_sec", bufferSec), trace.A("pred_bps", predBps),
			trace.A("level", int(lv)), trace.A("horizon", horizon))
		w.phase.End()
	}
	if w.picks[lv] == nil && w.reg != nil {
		w.picks[lv] = w.reg.Counter("pano_abr_level_decisions_total",
			"chunk-level decisions by chosen level", obs.L("level", "L"+strconv.Itoa(int(lv))))
	}
	w.picks[lv].Inc()
}

// assigned closes the per-tile quality assignment (§6.1's PSPNR
// assignment step) with its budget and the plan's tile count.
func (w *watcher) assigned(budgetBits float64, tiles int) {
	if w == nil {
		return
	}
	w.planS.ObserveExemplar(w.timer.ObserveDuration().Seconds(), w.traceHex)
	w.plans.Inc()
	if w.phase != nil {
		w.phase.Annotate(trace.A("planner", w.planner), trace.A("budget_bits", budgetBits), trace.A("tiles", tiles))
		w.phase.End()
	}
}

// fetched closes the fetch phase over chunk cr's tiles, and records
// |pred−thr|/thr, the §8.3 robustness variable, when the chunk had a
// prediction pred (before MaxRateBps and BWErrorFrac) and a throughput.
func (w *watcher) fetched(cr *ChunkResult, pred float64) {
	if w == nil {
		return
	}
	if w.phase != nil {
		w.phase.Annotate(trace.A("tiles", len(cr.Planned)), trace.A("slowest_tile", w.slowTile),
			trace.A("slowest_sec", w.slowest.Seconds()), trace.A("bytes", cr.Bytes), trace.A("retries", cr.Retries),
			trace.A("tiles_degraded", cr.Degraded), trace.A("tiles_skipped", cr.Skipped))
		w.phase.End()
	}
	if pred > 0 && cr.Throughput > 0 {
		w.bwErrs.Observe(math.Abs(pred-cr.Throughput) / cr.Throughput)
	}
}

// attempted records an attempt at tile ti, its first when first, that
// took d, failed or not.
func (w *watcher) attempted(ti int, d time.Duration, first bool) {
	if w == nil {
		return
	}
	w.attempts.ObserveExemplar(d.Seconds(), w.traceHex)
	if first && d > w.slowest {
		w.slowTile, w.slowest = ti, d
	}
}

// tileRetry records attempt number attempt at tile ti's level lv failing
// with an error of class, under an attempt deadline of timeout.
func (w *watcher) tileRetry(k, ti int, lv codec.Level, attempt int, timeout time.Duration, class string) {
	if w != nil {
		w.reg.Counter("pano_client_tile_retries_total",
			"failed tile fetch attempts that were retried or degraded, by error class", obs.L("class", class)).Inc()
		w.event(slog.LevelDebug, "tile_retry", "chunk", k, "tile", ti, "level", int(lv), "attempt", attempt,
			"timeout_sec", timeout.Seconds(), "class", class)
	}
}

// tileDone records how tile ti's ladder ended — out, degraded or skipped
// after lastErr, or cut short by the session's own cancellation err —
// closes its tile_fetch span s, if it opened one, and returns err.
func (w *watcher) tileDone(s *trace.Span, k, ti int, planned codec.Level, out *tileFetch, lastErr, err error) error {
	if w == nil {
		return err
	}
	outcome := "ok"
	switch {
	case err != nil:
		s.SetError("canceled")
	case out.skipped:
		outcome = "skipped"
		w.skipped.Inc()
		w.event(slog.LevelWarn, "tile_skipped", "chunk", k, "tile", ti, "planned_level", int(planned),
			"retries", out.retries, "class", ErrorClass(lastErr), "error", lastErr.Error())
	case out.degraded:
		outcome = "degraded"
		w.degraded.Inc()
		w.event(slog.LevelWarn, "tile_degraded", "chunk", k, "tile", ti, "planned_level", int(planned),
			"level", int(out.level), "retries", out.retries)
	}
	if s != nil {
		s.Annotate(trace.A("retries", out.retries), trace.A("level", int(out.level)))
		if err == nil { // a canceled ladder has no outcome
			s.Annotate(trace.A("outcome", outcome))
		}
		s.End()
	}
	return err
}

// chunkDone records chunk cr done — the stall its download cost, the
// buffer after it and, when the manifest was live, the live latency
// after it, in seconds — and closes the chunk's span and its stitch
// phase, if it had one: stitch records nothing of its own.
func (w *watcher) chunkDone(cr *ChunkResult, stall, buffer float64, live bool, latency float64) {
	if w == nil {
		return
	}
	w.chunks.Inc()
	w.bytes.Add(float64(cr.Bytes))
	w.rebuf.Add(stall)
	w.download.ObserveExemplar(cr.Download.Seconds(), w.traceHex)
	w.buffer.Set(buffer)
	if w.log != nil {
		w.log.Debug("chunk_done", "chunk", cr.Chunk, "bytes", cr.Bytes, "download_sec", cr.Download.Seconds(),
			"throughput_bps", cr.Throughput, "stall_sec", stall, "buffer_sec", buffer,
			"retries", cr.Retries, "tiles_degraded", cr.Degraded, "tiles_skipped", cr.Skipped)
	}
	if live {
		if w.liveLat == nil && w.reg != nil {
			w.liveLat = w.reg.Gauge("pano_client_live_latency_sec", "playhead-to-edge live latency after each chunk")
		}
		w.liveLat.Set(latency)
	}
	w.phase.End() // a no-op unless the chunk was scored
	if w.chunk != nil {
		w.chunk.Annotate(trace.A("bytes", cr.Bytes), trace.A("stall_sec", stall),
			trace.A("buffer_sec", buffer), trace.A("throughput_bps", cr.Throughput))
		if live {
			w.chunk.Annotate(trace.A("live_latency_sec", latency))
		}
		w.chunk.End()
	}
}

// end records the session's end, res as the loop left it and err as it
// returns. One pass over the delivered chunks observes each one's
// estimated PSPNR and their mean.
func (w *watcher) end(res *StreamResult, err error) {
	if w == nil {
		return
	}
	status := "ok"
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		status = "canceled"
	case err != nil && res.Manifest == nil:
		status = "manifest_error"
	case err != nil:
		status = "tile_error"
	case res.SkippedTiles > 0:
		status = "tile_skipped"
	case res.DegradedTiles > 0:
		status = "tile_degraded"
	}
	w.phase.SetError("canceled") // marks only a phase still open: a fetch err cut short
	w.phase.End()
	w.chunk.End()
	if w.span != nil {
		if err != nil {
			w.span.SetError(status)
		}
		w.span.Annotate(trace.A("status", status), trace.A("chunks", len(res.Chunks)), trace.A("retries", res.TotalRetries))
		w.span.End()
	}
	if w.reg == nil && w.log == nil {
		return // a traced-only session: nothing reads the estimate
	}
	mean := res.meanEstPSPNR(w.est)
	w.reg.Counter("pano_client_sessions_total", "streaming sessions by terminal status", obs.L("status", status)).Inc()
	if err == nil {
		w.reg.Gauge("pano_client_session_pspnr_db", "session mean client-estimated viewport PSPNR").Set(mean)
		w.reg.Gauge("pano_client_session_mos",
			"Table 3 opinion-score band of the estimated session quality").Set(float64(quality.MOSFromPSPNR(mean)))
	}
	if w.log == nil {
		return
	}
	args := []any{
		"status", status, "chunks_streamed", len(res.Chunks),
		"total_bytes", res.TotalBytes, "rebuffer_sec", res.RebufferSec,
		"startup_sec", res.StartupDelay.Seconds(), "elapsed_sec", w.clk.Since(w.start).Seconds(),
		"retries", res.TotalRetries, "tiles_degraded", res.DegradedTiles, "tiles_skipped", res.SkippedTiles,
		"mean_est_pspnr_db", mean, "mos", quality.MOSFromPSPNR(mean),
	}
	if err != nil {
		args = append(args, "error", err.Error())
	}
	w.log.Info("session_summary", args...)
}
