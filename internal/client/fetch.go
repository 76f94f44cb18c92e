package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"syscall"
	"time"

	"pano/internal/codec"
	"pano/internal/mathx"
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
	// doubles it up to MaxBackoff (default 1s), and backoffJitterFrac
	// randomizes it.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
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
}

// backoffJitterFrac randomizes each backoff within ±backoffJitterFrac/2
// of itself, so synchronized clients don't retry in lockstep.
const backoffJitterFrac = 0.5

// DefaultFetchPolicy returns the default resilient policy.
func DefaultFetchPolicy() FetchPolicy {
	return FetchPolicy{
		MaxAttempts:       3,
		BaseBackoff:       50 * time.Millisecond,
		MaxBackoff:        time.Second,
		AttemptTimeout:    5 * time.Second,
		MinAttemptTimeout: 100 * time.Millisecond,
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
	if p.AttemptTimeout <= 0 {
		p.AttemptTimeout = d.AttemptTimeout
	}
	if p.MinAttemptTimeout <= 0 {
		p.MinAttemptTimeout = d.MinAttemptTimeout
	}
	return p
}

// attemptTimeout derives the per-attempt deadline from buffer
// occupancy: each attempt may spend at most half the remaining playback
// buffer, floored at MinAttemptTimeout and capped at AttemptTimeout.
// During startup — before the session's first chunk lands, whichever
// chunk that is — nothing is playing yet and the full AttemptTimeout
// applies.
func (p *FetchPolicy) attemptTimeout(buffer time.Duration, startup bool) time.Duration {
	if startup {
		return p.AttemptTimeout
	}
	t := buffer / 2
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
	if rng != nil {
		const j = backoffJitterFrac
		d = time.Duration(float64(d) * (1 - j/2 + j*rng.Float64()))
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
}

// Fetcher is one session's tile-fetch ladder: what every tile it fetches
// shares. RunSession builds one per session, its watcher attached.
type Fetcher struct {
	tp  Transport
	clk Clock
	pol FetchPolicy // as WithDefaults returns it
	rng *mathx.RNG  // the backoff jitter
	w   *watcher    // nil for an unwatched session
}

// fetch runs the §7 degradation ladder for one tile, every attempt
// under the deadline timeout: bounded retries with jittered backoff at
// the planned level, then at the lowest level, then a skip. It returns
// an error only when the session context itself is canceled; every
// server-side failure mode resolves to a degraded or skipped outcome so
// the session continues. The outcome goes to out, which the caller
// reuses tile after tile.
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
func (f *Fetcher) fetch(ctx context.Context, k, ti int, planned codec.Level, timeout time.Duration, out *tileFetch) error {
	tp, clk, pol, w := f.tp, f.clk, &f.pol, f.w
	// Spans and attribute lists are built only under a traced context,
	// metrics and events only through a watcher: the unobserved ladder
	// allocates nothing per tile.
	var tspan *trace.Span // the tile_fetch span, open from the first failure on

	*out = tileFetch{level: planned}
	lowest := codec.Level(codec.NumLevels - 1)
	rungs := [2]codec.Level{planned, lowest}
	nRungs := 2
	if planned == lowest {
		nRungs = 1
	}
	var lastErr error
	for ri, lv := range rungs[:nRungs] {
		for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
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
			w.attempted(ti, d, out.retries == 0)
			if err == nil {
				aspan.End()
				out.bits, out.level, out.goodput, out.degraded = bits, lv, d, ri > 0
				return w.tileDone(tspan, k, ti, planned, out, nil, nil)
			}
			class := ErrorClass(err)
			aspan.SetError(class)
			if ctx.Err() != nil {
				// The session itself was canceled (or hit its overall
				// deadline): propagate instead of degrading.
				aspan.End()
				return w.tileDone(tspan, k, ti, planned, out, nil, err)
			}
			if tspan == nil && w != nil && w.traceHex != "" {
				ctx, tspan = trace.StartSpan(ctx, "tile_fetch",
					trace.A("tile", ti), trace.A("planned_level", int(planned)),
					trace.A("first_class", class), trace.A("first_sec", d.Seconds()))
			}
			lastErr = err
			out.retries++
			w.tileRetry(k, ti, lv, attempt+1, timeout, class)
			if !retryable(err) {
				aspan.End()
				break // this rung is hopeless; drop a level
			}
			var backoff time.Duration
			if attempt < pol.MaxAttempts-1 {
				backoff = pol.Backoff(attempt, f.rng)
				if aspan != nil {
					aspan.Annotate(trace.A("backoff_sec", backoff.Seconds()))
				}
			}
			aspan.End()
			if backoff > 0 {
				if err := clk.Sleep(ctx, backoff); err != nil {
					return w.tileDone(tspan, k, ti, planned, out, nil, err)
				}
			}
		}
	}
	out.skipped = true
	return w.tileDone(tspan, k, ti, planned, out, lastErr, nil)
}
