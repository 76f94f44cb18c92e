// Package chaos is a deterministic fault-injection HTTP middleware for
// exercising the streaming pipeline's failure paths. It wraps the
// server handler (or any http.Handler) and injects, per endpoint class:
//
//   - 500 responses and connection aborts,
//   - added latency with uniform jitter,
//   - bandwidth throttling of response bodies,
//   - truncated bodies (partial write, then connection abort),
//   - mid-body stalls,
//
// optionally gated by a "flaky window" schedule over the request
// sequence. Every decision is derived from a seed, the request path,
// and that path's per-path request count — so a retried request sees an
// independent (but reproducible) draw, and a whole scripted session is
// replayable regardless of wall-clock timing.
//
// A zero Profile disables injection entirely: Wrap returns the handler
// untouched, so the chaos layer is byte-identical to no chaos layer.
package chaos

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"pano/internal/mathx"
	"pano/internal/obs"
	"pano/internal/trace"
)

// Rule is the fault mix applied to one endpoint class. Rates are
// probabilities in [0, 1]; a zero Rule injects nothing.
type Rule struct {
	// ErrorRate is the probability of answering 500 without reaching
	// the wrapped handler.
	ErrorRate float64
	// AbortRate is the probability of killing the connection before any
	// response byte (the client sees a transport error).
	AbortRate float64
	// TruncateRate is the probability of serving roughly half the body
	// and then killing the connection (a short read against the
	// declared Content-Length).
	TruncateRate float64
	// StallRate is the probability of pausing StallFor mid-body before
	// finishing the response (exercises client deadline expiry).
	StallRate float64
	// StallFor is the mid-body pause duration (default 250ms when a
	// stall fires with no duration configured).
	StallFor time.Duration
	// Latency is added before the wrapped handler runs; Jitter adds a
	// uniform extra delay in [0, Jitter).
	Latency time.Duration
	Jitter  time.Duration
	// ThrottleBps caps the response-body bandwidth in bits/second
	// (0 = unthrottled).
	ThrottleBps float64
}

// Stall is the mid-body pause a stall draws: StallFor, or 250ms when it
// is not set.
func (r Rule) Stall() time.Duration {
	if r.StallFor <= 0 {
		return 250 * time.Millisecond
	}
	return r.StallFor
}

// active reports whether the rule can inject anything.
func (r Rule) active() bool {
	return r.ErrorRate > 0 || r.AbortRate > 0 || r.TruncateRate > 0 ||
		r.StallRate > 0 || r.Latency > 0 || r.Jitter > 0 || r.ThrottleBps > 0
}

// Window is a request-sequence flaky schedule: of every Period wrapped
// requests, the first Flaky see the rules and the rest pass through
// clean. A zero (or non-positive Period) Window applies the rules to
// every request. Counting requests instead of wall time keeps the
// schedule deterministic under retries and variable timing.
type Window struct {
	Period int
	Flaky  int
}

// Down is a whole-endpoint outage schedule: unlike the per-request
// rates above, it takes the entire handler down — every path, including
// health probes — so fleet tests and the swarm can kill a whole origin.
// It is evaluated against elapsed time since the injector started (the
// swarm substitutes virtual elapsed time), which keeps flapping windows
// reproducible in discrete-event runs.
//
// Always is a permanent outage. Otherwise the outage starts After into
// the run and lasts For; a positive Every repeats the window with that
// period (flapping), while Every == 0 is a one-shot outage.
type Down struct {
	Always bool
	After  time.Duration
	For    time.Duration
	Every  time.Duration
}

// active reports whether the schedule can ever take the handler down.
func (d Down) active() bool { return d.Always || d.For > 0 }

// Validate rejects a flapping schedule whose period does not exceed the
// outage window: with 0 < Every <= For, t % Every always lands inside
// the window, silently degenerating to a permanent outage. The spec
// parser enforces this for spec strings; callers constructing Down
// values programmatically should validate here.
func (d Down) Validate() error {
	if d.Every > 0 && d.Every <= d.For {
		return fmt.Errorf("chaos: down period %s must exceed the window %s", d.Every, d.For)
	}
	return nil
}

// At reports whether the handler is down at elapsed time t.
func (d Down) At(t time.Duration) bool {
	if d.Always {
		return true
	}
	if d.For <= 0 || t < d.After {
		return false
	}
	t -= d.After
	if d.Every > 0 {
		t %= d.Every
	}
	return t < d.For
}

// Profile is a full injection configuration.
type Profile struct {
	// Seed drives every probabilistic decision.
	Seed uint64
	// Manifest applies to /manifest.json and /manifest.mpd; Tile to
	// /video/... objects. Other paths are never touched.
	Manifest Rule
	Tile     Rule
	// Window optionally gates both rules.
	Window Window
	// Down takes the whole handler (every path) down on a time
	// schedule, independent of the per-request rules.
	Down Down
}

// Enabled reports whether the profile can inject anything.
func (p Profile) Enabled() bool {
	return p.Manifest.active() || p.Tile.active() || p.Down.active()
}

// Option configures an Injector.
type Option func(*Injector)

// WithObs attaches a metrics registry: pano_chaos_requests_total and
// pano_chaos_injections_total{endpoint,kind}. nil is the no-op default.
func WithObs(reg *obs.Registry) Option {
	return func(in *Injector) { in.reg = reg }
}

// WithEventLog attaches a structured log of injected faults. nil is the
// no-op default.
func WithEventLog(l *obs.EventLog) Option {
	return func(in *Injector) { in.log = l }
}

// WithNow replaces the Down schedule's clock (tests drive outage
// windows deterministically with a fake clock). The injector's start
// time is read from the clock when New returns.
func WithNow(now func() time.Time) Option {
	return func(in *Injector) { in.now = now }
}

// Injector wraps handlers with the faults of one Profile. It is safe
// for concurrent use; decision determinism is per (path, attempt), so
// concurrent sessions do not perturb each other's draws (only the
// shared window schedule is ordered by arrival).
type Injector struct {
	p     Profile
	reg   *obs.Registry
	log   *obs.EventLog
	start time.Time
	now   func() time.Time // Down schedule clock (tests may override)

	mu   sync.Mutex
	seq  map[string]uint64 // per-path request count
	reqs uint64            // global wrapped-request count (window schedule)
}

// New returns an injector for the profile. The Down schedule's clock
// starts now.
func New(p Profile, opts ...Option) *Injector {
	in := &Injector{p: p, seq: make(map[string]uint64), now: time.Now}
	for _, o := range opts {
		o(in)
	}
	in.start = in.now()
	return in
}

// Profile returns the injector's configuration.
func (in *Injector) Profile() Profile { return in.p }

// endpointRule classifies a request path; ok is false for paths the
// injector never touches (e.g. /metrics).
func (in *Injector) endpointRule(path string) (string, Rule, bool) {
	switch {
	case path == "/manifest.json" || path == "/manifest.mpd":
		return "manifest", in.p.Manifest, true
	case strings.HasPrefix(path, "/video/"):
		return "tile", in.p.Tile, true
	}
	return "", Rule{}, false
}

// Outcome is the fault plan for one request, fully resolved before any
// byte moves — the exported form of the middleware's per-request
// decision, so logical transports (internal/swarm's virtual network)
// can replay the exact fault streams an HTTP session would see.
type Outcome struct {
	// Abort kills the connection before any response byte.
	Abort bool
	// Error500 answers 500 without reaching the handler.
	Error500 bool
	// Truncate serves roughly half the body then kills the connection;
	// Stall pauses Rule.StallFor mid-body. Both can fire together.
	Truncate bool
	Stall    bool
	// Latency is the injected pre-handler delay (Rule.Latency plus the
	// drawn jitter share).
	Latency time.Duration
}

// Draw resolves the fault plan for the n-th request with the given
// draw key under rule r. The draws happen in a fixed order so each
// fault type's stream is stable as other rates change, and precedence
// is abort > 500 > truncate|stall. The HTTP middleware keys its own
// draws with KeyString(path), so a non-HTTP transport keyed the same
// way reproduces its sequence exactly.
func (r Rule) Draw(seed, key, n uint64) Outcome {
	rng := mathx.NewRNG(seed ^ key ^ (n * 0x9e3779b97f4a7c15))
	uAbort := rng.Float64()
	uErr := rng.Float64()
	uTrunc := rng.Float64()
	uStall := rng.Float64()
	uJitter := rng.Float64()

	var d Outcome
	switch {
	case uAbort < r.AbortRate:
		d.Abort = true
	case uErr < r.ErrorRate:
		d.Error500 = true
	default:
		d.Truncate = uTrunc < r.TruncateRate
		d.Stall = uStall < r.StallRate
	}
	d.Latency = r.Latency + time.Duration(float64(r.Jitter)*uJitter)
	return d
}

// KeyString hashes a request path into a draw key (fnv-64a), matching
// the middleware's keying of Draw.
func KeyString(path string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(path))
	return h.Sum64()
}

// decide draws the request's fault plan from (seed, path, per-path
// attempt n).
func decide(seed uint64, path string, n uint64, r Rule) Outcome {
	return r.Draw(seed, KeyString(path), n)
}

// Wrap returns a handler injecting the profile's faults in front of
// next. A disabled profile returns next unchanged, so the wrapped
// pipeline is byte-identical to the unwrapped one.
func (in *Injector) Wrap(next http.Handler) http.Handler {
	if !in.p.Enabled() {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The outage schedule is checked before endpoint classification:
		// a down origin answers nothing, health probes included.
		if in.p.Down.active() && in.p.Down.At(in.now().Sub(in.start)) {
			in.inject("all", "down", r)
			trace.FromContext(r.Context()).Annotate("chaos.down", true)
			panic(http.ErrAbortHandler)
		}
		endpoint, rule, ok := in.endpointRule(r.URL.Path)
		if !ok || !rule.active() {
			next.ServeHTTP(w, r)
			return
		}
		in.mu.Lock()
		n := in.seq[r.URL.Path]
		in.seq[r.URL.Path] = n + 1
		g := in.reqs
		in.reqs++
		in.mu.Unlock()

		in.reg.Counter("pano_chaos_requests_total",
			"requests seen by the chaos injector", obs.L("endpoint", endpoint)).Inc()
		if p := in.p.Window.Period; p > 0 && int(g%uint64(p)) >= in.p.Window.Flaky {
			next.ServeHTTP(w, r)
			return
		}

		d := decide(in.p.Seed, r.URL.Path, n, rule)
		// When trace.Middleware wrapped us (it must sit OUTSIDE the
		// injector), every injected fault is annotated on the active
		// handler span, so a failed attempt's trace names its cause.
		sp := trace.FromContext(r.Context())
		if d.Latency > 0 {
			in.count(endpoint, "latency")
			sp.Annotate("chaos.latency_sec", d.Latency.Seconds())
			time.Sleep(d.Latency)
		}
		switch {
		case d.Abort:
			in.inject(endpoint, "abort", r)
			sp.Annotate("chaos.abort", true)
			panic(http.ErrAbortHandler)
		case d.Error500:
			in.inject(endpoint, "error", r)
			sp.Annotate("chaos.error", true)
			http.Error(w, "chaos: injected error", http.StatusInternalServerError)
			return
		}
		cw := &chaosWriter{rw: w, throttleBps: rule.ThrottleBps, truncateAt: -1, stallAt: -1}
		if d.Truncate {
			in.inject(endpoint, "truncate", r)
			sp.Annotate("chaos.truncate", true)
			cw.truncate = true
		}
		if d.Stall {
			in.inject(endpoint, "stall", r)
			sp.Annotate("chaos.stall", true)
			cw.stall, cw.stallFor = true, rule.Stall()
		}
		if rule.ThrottleBps > 0 {
			in.count(endpoint, "throttle")
			sp.Annotate("chaos.throttle_bps", rule.ThrottleBps)
		}
		next.ServeHTTP(cw, r)
	})
}

func (in *Injector) count(endpoint, kind string) {
	in.reg.Counter("pano_chaos_injections_total",
		"faults injected by endpoint and kind",
		obs.L("endpoint", endpoint), obs.L("kind", kind)).Inc()
}

func (in *Injector) inject(endpoint, kind string, r *http.Request) {
	in.count(endpoint, kind)
	in.log.Logger().Warn("chaos_injected", "kind", kind, "endpoint", endpoint, "path", r.URL.Path)
}

// chaosWriter applies body-level faults: throttling, truncation at half
// the declared length, and a one-shot mid-body stall.
type chaosWriter struct {
	rw          http.ResponseWriter
	throttleBps float64
	truncate    bool
	stall       bool
	stallFor    time.Duration
	truncateAt  int // body bytes before the connection is cut; -1 = unresolved
	stallAt     int // body bytes before the stall; -1 = unresolved
	written     int
}

func (w *chaosWriter) Header() http.Header { return w.rw.Header() }

func (w *chaosWriter) WriteHeader(code int) {
	w.resolve(0)
	w.rw.WriteHeader(code)
}

// resolve fixes the truncation/stall offsets at half the body size: the
// declared Content-Length when the handler set one, otherwise the first
// write's size (firstChunk).
func (w *chaosWriter) resolve(firstChunk int) {
	size := firstChunk
	if cl, err := strconv.Atoi(w.rw.Header().Get("Content-Length")); err == nil && cl > 0 {
		size = cl
	}
	if w.truncate && w.truncateAt < 0 && size > 0 {
		w.truncateAt = size / 2
	}
	if w.stall && w.stallAt < 0 && size > 0 {
		w.stallAt = size / 2
	}
}

func (w *chaosWriter) Write(p []byte) (int, error) {
	w.resolve(len(p))
	wrote := 0
	if w.stallAt >= 0 && w.written <= w.stallAt && w.stallAt < w.written+len(p) {
		// Deliver up to the stall point, pause, then continue.
		head := w.stallAt - w.written
		n, err := w.deliver(p[:head])
		wrote += n
		if err != nil {
			return wrote, err
		}
		w.stallAt = -1
		time.Sleep(w.stallFor)
		p = p[head:]
	}
	n, err := w.deliver(p)
	return wrote + n, err
}

// deliver writes through the throttle and enforces truncation.
func (w *chaosWriter) deliver(p []byte) (int, error) {
	if w.truncateAt >= 0 && w.written+len(p) >= w.truncateAt {
		head := w.truncateAt - w.written
		if head > 0 {
			w.throttled(p[:head])
		}
		// Cut the connection mid-body: net/http recognizes
		// ErrAbortHandler and closes without a trailing chunk, so the
		// client observes a short read against Content-Length.
		panic(http.ErrAbortHandler)
	}
	return w.throttled(p)
}

// throttled writes p, pacing to ThrottleBps in sub-chunks so large
// bodies drip rather than burst.
func (w *chaosWriter) throttled(p []byte) (int, error) {
	if w.throttleBps <= 0 {
		n, err := w.rw.Write(p)
		w.written += n
		return n, err
	}
	const chunk = 4 << 10
	total := 0
	for len(p) > 0 {
		n := len(p)
		if n > chunk {
			n = chunk
		}
		m, err := w.rw.Write(p[:n])
		total += m
		w.written += m
		if err != nil {
			return total, err
		}
		time.Sleep(time.Duration(float64(m*8) / w.throttleBps * float64(time.Second)))
		p = p[n:]
	}
	return total, nil
}
