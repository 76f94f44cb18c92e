package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"pano/internal/codec"
	"pano/internal/mathx"
	"pano/internal/obs"
	"pano/internal/server"
	"pano/internal/trace"
)

// StatusError reports a non-200 response from the server. 5xx responses
// are retryable (a flaky origin); 4xx are not (the request itself is
// wrong) and push the fetch ladder straight to its next rung.
type StatusError struct {
	Code int
}

// Error implements error.
func (e *StatusError) Error() string { return fmt.Sprintf("HTTP %d", e.Code) }

// FetchPolicy tunes the resilient tile-fetch pipeline: per-attempt
// deadlines derived from buffer occupancy, capped jittered exponential
// backoff, and the per-tile degradation ladder (retry at the planned
// level → re-fetch at the lowest level → skip the tile and stitch at
// previous content, §7). The zero value selects the defaults below, so
// existing callers get resilience without configuration.
type FetchPolicy struct {
	// MaxAttempts bounds attempts per ladder rung (default 3): a tile
	// sees at most 2*MaxAttempts requests before it is skipped.
	MaxAttempts int
	// BaseBackoff is the first retry delay (default 50ms); each retry
	// doubles it up to MaxBackoff (default 1s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// JitterFrac randomizes each backoff within ±JitterFrac/2 of itself
	// (default 0.5) so synchronized clients don't retry in lockstep.
	JitterFrac float64
	// AttemptTimeout caps one attempt (default 5s). MinAttemptTimeout
	// (default 100ms) floors the buffer-derived deadline so progress is
	// always possible even with an empty buffer.
	AttemptTimeout    time.Duration
	MinAttemptTimeout time.Duration
	// Seed drives the backoff jitter (deterministic for tests/benches).
	Seed uint64

	// Hedging applies when fetching through a multi-origin fleet
	// (internal/fleet); a single origin never hedges. HedgeDelay is the
	// wait before a backup request goes to the next ring replica: 0
	// selects an adaptive delay tracking the observed p95 fetch latency,
	// a negative value disables hedging.
	HedgeDelay time.Duration
	// HedgeBudgetRatio is the token-bucket earn rate guarding hedges and
	// failover retries: each primary request earns this many tokens and
	// each hedge or failover spends one (default 0.1 — at most ~10%
	// extra origin load, so shard loss never becomes a retry storm).
	// HedgeBudgetBurst caps the bucket (default 8).
	HedgeBudgetRatio float64
	HedgeBudgetBurst float64
}

// DefaultFetchPolicy returns the default resilient policy.
func DefaultFetchPolicy() FetchPolicy {
	return FetchPolicy{
		MaxAttempts:       3,
		BaseBackoff:       50 * time.Millisecond,
		MaxBackoff:        time.Second,
		JitterFrac:        0.5,
		AttemptTimeout:    5 * time.Second,
		MinAttemptTimeout: 100 * time.Millisecond,
		HedgeBudgetRatio:  0.1,
		HedgeBudgetBurst:  8,
	}
}

// WithDefaults returns the policy with zero fields filled from
// DefaultFetchPolicy — the normalization every fetch entry point
// applies, exported so the fleet layer resolves hedge tuning
// identically.
func (p FetchPolicy) WithDefaults() FetchPolicy {
	d := DefaultFetchPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = d.BaseBackoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = d.MaxBackoff
	}
	if p.JitterFrac <= 0 {
		p.JitterFrac = d.JitterFrac
	}
	if p.AttemptTimeout <= 0 {
		p.AttemptTimeout = d.AttemptTimeout
	}
	if p.MinAttemptTimeout <= 0 {
		p.MinAttemptTimeout = d.MinAttemptTimeout
	}
	if p.HedgeBudgetRatio <= 0 {
		p.HedgeBudgetRatio = d.HedgeBudgetRatio
	}
	if p.HedgeBudgetBurst <= 0 {
		p.HedgeBudgetBurst = d.HedgeBudgetBurst
	}
	return p
}

// attemptTimeout derives the per-attempt deadline from buffer
// occupancy: each attempt may spend at most half the remaining playback
// buffer, floored at MinAttemptTimeout and capped at AttemptTimeout.
// During startup (nothing is playing yet) the full AttemptTimeout
// applies.
func (p FetchPolicy) attemptTimeout(bufferSec float64, startup bool) time.Duration {
	if startup {
		return p.AttemptTimeout
	}
	t := time.Duration(bufferSec / 2 * float64(time.Second))
	if t < p.MinAttemptTimeout {
		return p.MinAttemptTimeout
	}
	if t > p.AttemptTimeout {
		return p.AttemptTimeout
	}
	return t
}

// Backoff returns the jittered delay before retry number attempt
// (0-based); exported so the fleet layer paces its failover rounds
// like the ladder.
func (p FetchPolicy) Backoff(attempt int, rng *mathx.RNG) time.Duration {
	d := p.BaseBackoff
	for i := 0; i < attempt && d < p.MaxBackoff; i++ {
		d *= 2
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	if p.JitterFrac > 0 && rng != nil {
		d = time.Duration(float64(d) * (1 - p.JitterFrac/2 + p.JitterFrac*rng.Float64()))
	}
	return d
}

// retryable classifies a fetch error: 4xx server answers are final for
// this rung; everything else (5xx, transport errors, truncated or
// corrupt bodies, attempt deadline expiry) is worth retrying.
func retryable(err error) bool {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code >= 500
	}
	return true
}

// ErrorClass buckets a fetch error into a low-cardinality class, so
// retry events and counters aggregate cleanly under chaos instead of
// exploding into raw error strings:
//
//	timeout    — the attempt deadline expired (or the transport timed out)
//	http_5xx   — a retryable server answer
//	http_4xx   — a final server answer (the request itself is wrong)
//	conn_reset — the connection died, or the HTTP/2 stream was reset,
//	             before the answer (reset, refused, broken pipe, EOF)
//	truncated  — a short or corrupt body (length/header mismatch, or a
//	             reset mid-body)
//	other      — anything else
func ErrorClass(err error) string {
	if err == nil {
		return ""
	}
	var se *StatusError
	if errors.As(err, &se) {
		if se.Code >= 500 {
			return "http_5xx"
		}
		return "http_4xx"
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return "timeout"
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return "timeout"
	}
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, server.ErrTileHeader) {
		return "truncated"
	}
	if errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.EPIPE) || errors.Is(err, io.EOF) {
		return "conn_reset"
	}
	msg := err.Error()
	switch {
	case strings.Contains(msg, "connection reset") || strings.Contains(msg, "broken pipe") ||
		strings.Contains(msg, "EOF") || strings.Contains(msg, "stream error"):
		return "conn_reset"
	case strings.Contains(msg, "timeout") || strings.Contains(msg, "deadline"):
		return "timeout"
	}
	return "other"
}

// errorClasses are ErrorClass's answers, in the order of its doc.
var errorClasses = [...]string{"timeout", "http_5xx", "http_4xx", "conn_reset", "truncated", "other"}

// fetchInstruments are the per-session obs handles of the resilient
// pipeline (all nil-safe).
type fetchInstruments struct {
	reg      *obs.Registry
	attempts *obs.Histogram // pano_client_tile_attempt_seconds
	degraded *obs.Counter   // pano_client_tiles_degraded_total
	skipped  *obs.Counter   // pano_client_tiles_skipped_total
	// retries are pano_client_tile_retries_total{class}, one slot per
	// errorClasses entry, each resolved at its class's first retry.
	retries [len(errorClasses)]atomic.Pointer[obs.Counter]
}

func newFetchInstruments(reg *obs.Registry) fetchInstruments {
	return fetchInstruments{
		reg: reg,
		attempts: reg.Histogram("pano_client_tile_attempt_seconds",
			"per-attempt tile download latency (including failed attempts)", nil),
		degraded: reg.Counter("pano_client_tiles_degraded_total",
			"tiles delivered at the lowest level after planned-level failures"),
		skipped: reg.Counter("pano_client_tiles_skipped_total",
			"tiles abandoned after the full degradation ladder"),
	}
}

// retry counts one failed attempt under its error class, so chaos runs
// aggregate by failure mode instead of raw error strings.
func (ins *fetchInstruments) retry(class string) {
	ins.reg.CounterIn(&ins.retries[slices.Index(errorClasses[:], class)], "pano_client_tile_retries_total",
		"failed tile fetch attempts that were retried or degraded, by error class",
		obs.L("class", class)).Inc()
}

// tileFetch is the outcome of the degradation ladder for one tile.
type tileFetch struct {
	bits     float64
	level    codec.Level
	retries  int
	degraded bool
	skipped  bool
	// goodput is the duration of the successful attempt only, so
	// throughput accounting excludes retry overhead and the bandwidth
	// predictor is not poisoned by failures.
	goodput time.Duration
	// first is the first attempt's duration, failed or not.
	first time.Duration
}

// fetchTileResilient runs the §7 degradation ladder for one tile:
// bounded retries with jittered backoff at the planned level, then at
// the lowest level, then a skip. It returns an error only when the
// session context itself is canceled; every server-side failure mode
// resolves to a degraded or skipped outcome so the session continues.
//
// Under a traced ctx the ladder records what went wrong and nothing
// else: a tile whose first attempt succeeds opens no span (the chunk's
// "fetch" span carries the tiles' first-attempt durations). When the
// first attempt fails, the tile opens a "tile_fetch" span carrying the
// planned level and that attempt's error class and seconds, and every
// later attempt opens an "attempt" span under it — annotated with the
// ladder rung, the buffer-derived deadline, the backoff that follows a
// failure, and the failure's error class — so a late chunk decomposes
// into exactly which attempt stalled and why.
func fetchTileResilient(ctx context.Context, tp Transport, clk Clock, k, ti int, planned codec.Level,
	pol FetchPolicy, bufferSec float64, startup bool, rng *mathx.RNG,
	ins *fetchInstruments, sess *slog.Logger) (tileFetch, error) {

	// Spans and attribute lists are built only under a traced context,
	// event argument lists only with a log attached (sess non-nil): the
	// unobserved ladder allocates nothing per tile.
	span := trace.FromContext(ctx)
	var exemplar string
	if span != nil && ins.attempts != nil {
		exemplar = span.TraceHex()
	}
	var tspan *trace.Span // the tile_fetch span, open from the first failure on

	out := tileFetch{level: planned}
	lowest := codec.Level(codec.NumLevels - 1)
	rungs := [2]codec.Level{planned, lowest}
	nRungs := 2
	if planned == lowest {
		nRungs = 1
	}
	var lastErr error
	for ri, lv := range rungs[:nRungs] {
		for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
			timeout := pol.attemptTimeout(bufferSec, startup)
			actx, aspan := ctx, (*trace.Span)(nil)
			if tspan != nil {
				actx, aspan = trace.StartSpan(ctx, "attempt",
					trace.A("attempt", attempt+1), trace.A("rung", ri), trace.A("level", int(lv)),
					trace.A("deadline_sec", timeout.Seconds()))
			}
			actx, cancel := clk.WithTimeout(actx, timeout)
			t0 := clk.Now()
			bits, err := tp.Tile(actx, k, ti, lv)
			d := clk.Since(t0)
			cancel()
			ins.attempts.ObserveExemplar(d.Seconds(), exemplar)
			if out.retries == 0 {
				out.first = d
			}
			if err == nil {
				aspan.End()
				out.bits, out.level, out.goodput = bits, lv, d
				if ri > 0 {
					out.degraded = true
					ins.degraded.Inc()
					if sess != nil {
						sess.Warn("tile_degraded",
							"chunk", k, "tile", ti, "planned_level", int(planned),
							"level", int(lv), "retries", out.retries)
					}
				}
				return endTileSpan(tspan, out, nil)
			}
			class := ErrorClass(err)
			aspan.SetError(class)
			if ctx.Err() != nil {
				// The session itself was canceled (or hit its overall
				// deadline): propagate instead of degrading.
				aspan.End()
				return endTileSpan(tspan, out, err)
			}
			if span != nil && tspan == nil {
				ctx, tspan = trace.StartSpan(ctx, "tile_fetch",
					trace.A("tile", ti), trace.A("planned_level", int(planned)),
					trace.A("first_class", class), trace.A("first_sec", d.Seconds()))
			}
			lastErr = err
			out.retries++
			ins.retry(class)
			if sess != nil {
				sess.Debug("tile_retry",
					"chunk", k, "tile", ti, "level", int(lv), "attempt", attempt+1,
					"timeout_sec", timeout.Seconds(), "class", class)
			}
			if !retryable(err) {
				aspan.End()
				break // this rung is hopeless; drop a level
			}
			var backoff time.Duration
			if attempt < pol.MaxAttempts-1 {
				backoff = pol.Backoff(attempt, rng)
				if aspan != nil {
					aspan.Annotate("backoff_sec", backoff.Seconds())
				}
			}
			aspan.End()
			if backoff > 0 {
				if err := clk.Sleep(ctx, backoff); err != nil {
					return endTileSpan(tspan, out, err)
				}
			}
		}
	}
	out.skipped = true
	ins.skipped.Inc()
	if sess != nil {
		sess.Warn("tile_skipped",
			"chunk", k, "tile", ti, "planned_level", int(planned),
			"retries", out.retries, "class", ErrorClass(lastErr), "error", lastErr.Error())
	}
	return endTileSpan(tspan, out, nil)
}

// endTileSpan closes the tile_fetch span s, when the ladder opened one,
// with the ladder's outcome, and returns that outcome.
func endTileSpan(s *trace.Span, out tileFetch, err error) (tileFetch, error) {
	if s == nil {
		return out, err
	}
	s.Annotate("retries", out.retries)
	s.Annotate("level", int(out.level))
	switch {
	case err != nil:
		s.SetError("canceled")
	case out.skipped:
		s.Annotate("outcome", "skipped")
	case out.degraded:
		s.Annotate("outcome", "degraded")
	default:
		s.Annotate("outcome", "ok")
	}
	s.End()
	return out, err
}
