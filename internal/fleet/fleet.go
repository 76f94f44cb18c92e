package fleet

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pano/internal/client"
	"pano/internal/mathx"
	"pano/internal/obs"
	"pano/internal/trace"
)

// Config assembles a Fleet. Origins is the only required field.
type Config struct {
	// Origins are the origin base URLs (e.g. "http://10.0.0.1:8080").
	Origins []string
	// Fetch tunes per-attempt deadlines, failover backoff, and hedging
	// (zero value = client.DefaultFetchPolicy).
	Fetch client.FetchPolicy
	// Breaker tunes the per-origin circuit breakers.
	Breaker BreakerConfig
	// ProbeInterval enables active health checking: each origin's
	// /healthz is probed at this (jittered) period. 0 disables active
	// probes; breakers then recover through half-open request traffic.
	ProbeInterval time.Duration
	// Seed drives breaker jitter, probe jitter, and failover backoff
	// jitter.
	Seed uint64
	// HTTP is the shared transport for origin requests and probes
	// (default: one persistent-connection client per origin).
	HTTP *http.Client
	// Obs receives pano_fleet_* and pano_client_hedge_* metrics; Log
	// structured failover/breaker events. Both nil-safe.
	Obs *obs.Registry
	Log *obs.EventLog
	// Now is the wall clock (tests may override).
	Now func() time.Time
}

// origin is one shard: its base URL, raw-fetch client, and breaker,
// and the per-origin series, resolved by the first request or gauge
// refresh that needs them (the origin index is the label).
type origin struct {
	url string
	cli *client.Client
	brk *Breaker

	label     string // the index, as the "origin" label value
	requests  atomic.Pointer[obs.Counter]
	state     atomic.Pointer[obs.Gauge]
	published atomic.Int32 // BreakerState last written to the gauge, -1 before the first; written under Fleet.gaugeMu
}

// Fleet routes object fetches across a set of origins. See the package
// comment for the full model.
type Fleet struct {
	cfg    Config
	pol    client.FetchPolicy
	ring   *Ring
	ors    []*origin
	budget *Budget
	lat    *latTracker
	now    func() time.Time
	seq    atomic.Uint64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	gaugeMu  sync.Mutex // held only while a breaker position is being published

	// instruments (all nil-safe)
	failovers       *obs.Counter
	failoverSec     *obs.Histogram
	hedgeIssued     *obs.Counter
	hedgeWins       *obs.Counter
	hedgeCancelled  *obs.Counter
	budgetExhausted *obs.Counter
	originsOpen     *obs.Gauge
}

// New validates the origin URLs, builds the ring and breakers, and —
// when cfg.ProbeInterval > 0 — starts the health probers. Close stops
// them.
func New(cfg Config) (*Fleet, error) {
	if len(cfg.Origins) == 0 {
		return nil, fmt.Errorf("fleet: no origins configured")
	}
	for _, o := range cfg.Origins {
		u, err := url.Parse(o)
		if err != nil {
			return nil, fmt.Errorf("fleet: bad origin %q: %v", o, err)
		}
		if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("fleet: bad origin %q (want http[s]://host[:port])", o)
		}
	}
	f := &Fleet{
		cfg:  cfg,
		pol:  cfg.Fetch.WithDefaults(),
		ring: NewRing(cfg.Origins, defaultVnodes),
		now:  cfg.Now,
		stop: make(chan struct{}),
		lat:  newLatTracker(),
	}
	if f.now == nil {
		f.now = time.Now
	}
	f.budget = NewBudget(f.pol.HedgeBudgetRatio, f.pol.HedgeBudgetBurst)
	for i, u := range cfg.Origins {
		cli := client.New(u)
		if cfg.HTTP != nil {
			cli.HTTP = cfg.HTTP
		}
		o := &origin{
			url:   u,
			cli:   cli,
			brk:   NewBreaker(cfg.Breaker, cfg.Seed^0xb4ea^uint64(i)*0x9e3779b97f4a7c15),
			label: strconv.Itoa(i),
		}
		o.published.Store(-1)
		f.ors = append(f.ors, o)
	}
	reg := cfg.Obs
	f.failovers = reg.Counter("pano_fleet_failovers_total",
		"fetches answered by an origin other than the sole first attempt")
	f.failoverSec = reg.Histogram("pano_fleet_failover_seconds",
		"time from first attempt to a definitive answer, for fetches that needed more than one attempt", nil)
	f.hedgeIssued = reg.Counter("pano_client_hedge_issued_total",
		"hedged backup requests launched after the hedge delay")
	f.hedgeWins = reg.Counter("pano_client_hedge_wins_total",
		"hedged backup requests that answered before the primary")
	f.hedgeCancelled = reg.Counter("pano_client_hedge_cancelled_total",
		"hedged backup requests cancelled because the primary answered first")
	f.budgetExhausted = reg.Counter("pano_fleet_budget_exhausted_total",
		"hedges or failovers suppressed by an empty retry budget")
	f.originsOpen = reg.Gauge("pano_fleet_origins_open",
		"origins whose circuit breaker is currently open")
	if cfg.ProbeInterval > 0 {
		f.startProbes()
	}
	return f, nil
}

// Origins returns the configured origin URLs (index = origin id).
func (f *Fleet) Origins() []string { return f.cfg.Origins }

// Ring exposes the placement ring (read-only).
func (f *Fleet) Ring() *Ring { return f.ring }

// Close stops the health probers and waits for them.
func (f *Fleet) Close() {
	f.stopOnce.Do(func() { close(f.stop) })
	f.wg.Wait()
}

// Pick returns the base URL of the first available origin in path's
// ring order — the routing decision without a request attached (the
// edge's passthrough proxy uses it). With every breaker open it falls
// back to the key's owner.
func (f *Fleet) Pick(path string) string {
	order := f.ring.Order(f.ring.Key(path))
	now := f.now()
	for _, idx := range order {
		if f.ors[idx].brk.Available(now) {
			return f.ors[idx].url
		}
	}
	return f.ors[order[0]].url
}

// OriginState is one origin's health snapshot.
type OriginState struct {
	URL     string       `json:"url"`
	Breaker BreakerState `json:"-"`
	State   string       `json:"state"`
	Tokens  float64      `json:"-"`
}

// Snapshot reports every origin's breaker state (for /debug surfaces
// and tests).
func (f *Fleet) Snapshot() []OriginState {
	now := f.now()
	out := make([]OriginState, len(f.ors))
	for i, o := range f.ors {
		st := o.brk.State(now)
		out[i] = OriginState{URL: o.url, Breaker: st, State: st.String(), Tokens: f.budget.Tokens()}
	}
	return out
}

// refreshGauges republishes breaker positions after an event that may
// have moved one. It runs after every origin request, and a request
// almost never moves a breaker: the common call reads each breaker,
// finds what the gauges already say and takes no fleet-wide lock.
// Whoever does publish looks again afterwards, so a caller that skipped
// on a reading about to be overwritten is covered by the overwriter.
func (f *Fleet) refreshGauges() {
	if f.cfg.Obs == nil {
		return
	}
	for f.gaugesStale() {
		f.publishGauges()
	}
}

// gaugesStale reports whether some breaker's position differs from the
// one last published.
func (f *Fleet) gaugesStale() bool {
	now := f.now()
	for _, o := range f.ors {
		if int32(o.brk.State(now)) != o.published.Load() {
			return true
		}
	}
	return false
}

// publishGauges writes the positions that changed. Reading the states
// and writing the gauges happen under one lock: two publishers racing
// could otherwise leave the older reading on a gauge.
func (f *Fleet) publishGauges() {
	f.gaugeMu.Lock()
	defer f.gaugeMu.Unlock()
	now := f.now()
	open := 0
	for _, o := range f.ors {
		st := o.brk.State(now)
		if st == Open {
			open++
		}
		if int32(st) != o.published.Load() {
			o.published.Store(int32(st))
			f.cfg.Obs.GaugeIn(&o.state, "pano_fleet_breaker_state",
				"per-origin breaker position (0 closed, 1 half-open, 2 open)",
				obs.L("origin", o.label)).Set(float64(st))
		}
	}
	f.originsOpen.Set(float64(open))
}

// hedgeDelay resolves the backup-request delay: a fixed positive
// HedgeDelay, or the adaptive p95 of recent fetch latencies, clamped so
// a cold latency tracker neither hedges instantly nor never.
func (f *Fleet) hedgeDelay() time.Duration {
	const minDelay, maxDelay = 10 * time.Millisecond, time.Second
	if f.pol.HedgeDelay > 0 {
		return f.pol.HedgeDelay
	}
	d := f.lat.p95()
	if d < minDelay {
		d = minDelay
	}
	if d > maxDelay {
		d = maxDelay
	}
	return d
}

// attemptResult is one origin request's outcome.
type attemptResult struct {
	res   client.RawResult
	err   error
	hedge bool
	idx   int
}

// Fetch routes one conditional GET through the fleet: the key's ring
// order is the failover ladder, each failed origin advances to the
// next (spending budget), full rounds back off like the client's retry
// ladder, and while a primary request is in flight a hedged backup may
// race it. It returns the first definitive origin answer; like
// client.FetchRaw, ctx cancellation and exhaustion (of attempts or
// budget) are the only error paths.
func (f *Fleet) Fetch(ctx context.Context, path, etag string) (client.RawResult, error) {
	// The attribute boxes path: only under a traced context.
	var span *trace.Span
	if trace.FromContext(ctx) != nil {
		ctx, span = trace.StartSpan(ctx, "fleet.route", trace.A("path", path))
		defer span.End()
	}
	key := f.ring.Key(path)
	order := f.ring.Order(key)
	if span != nil {
		span.Annotate("owner", order[0])
	}

	f.budget.Earn()
	rng := mathx.NewRNG(f.cfg.Seed ^ key ^ f.seq.Add(1)*0x9e3779b97f4a7c15)
	start := f.now()
	var lastErr error
	tried := 0
	for round := 0; round < f.pol.MaxAttempts; round++ {
		for oi, idx := range order {
			o := f.ors[idx]
			// Every request beyond the first spends failover budget; a
			// dry bucket ends the ladder instead of piling load onto a
			// struggling fleet.
			adm, probe := Admit(o.brk, f.budget, f.now(), tried > 0)
			if adm == BreakerDenied {
				continue
			}
			if adm == BudgetDry {
				f.budgetExhausted.IncExemplar(span.TraceHex())
				span.SetError("budget_exhausted")
				return client.RawResult{}, fmt.Errorf("fleet: %s: retry budget exhausted after %d attempts: %w", path, tried, lastErr)
			}
			tried++
			var backup *origin
			var backupIdx int
			if !probe {
				backup, backupIdx = f.nextAvailable(order, oi)
			}
			res, err := f.attempt(ctx, span, path, etag, o, idx, backup, backupIdx, probe)
			if err == nil {
				if span != nil {
					span.Annotate("origin", res.idx)
					span.Annotate("attempts", tried)
				}
				if tried > 1 || res.idx != idx || res.hedge {
					f.failovers.Inc()
				}
				if tried > 1 {
					f.failoverSec.ObserveExemplar(f.now().Sub(start).Seconds(), span.TraceHex())
				}
				return res.res, nil
			}
			lastErr = err
			if ctx.Err() != nil {
				return client.RawResult{}, ctx.Err()
			}
			if f.cfg.Log != nil {
				f.cfg.Log.Logger().Warn("fleet_failover",
					"path", path, "origin", idx, "class", client.ErrorClass(err))
			}
		}
		if round < f.pol.MaxAttempts-1 {
			if err := (client.RealClock{}).Sleep(ctx, f.pol.Backoff(round, rng)); err != nil {
				return client.RawResult{}, err
			}
		}
	}
	span.SetError(client.ErrorClass(lastErr))
	if lastErr == nil {
		lastErr = fmt.Errorf("all origin breakers open")
	}
	return client.RawResult{}, fmt.Errorf("fleet: %s: all origins failed: %w", path, lastErr)
}

// nextAvailable finds the hedge target: the first origin after position
// oi in ring order whose breaker would accept a request.
func (f *Fleet) nextAvailable(order []int, oi int) (*origin, int) {
	now := f.now()
	for i := oi + 1; i < len(order); i++ {
		if o := f.ors[order[i]]; o.brk.Available(now) {
			return o, order[i]
		}
	}
	return nil, -1
}

// attempt issues one primary request to o and, if it is still in
// flight after the hedge delay, races one budget-guarded backup request
// against the next replica; first definitive answer wins and the loser
// is cancelled.
func (f *Fleet) attempt(ctx context.Context, span *trace.Span, path, etag string,
	o *origin, idx int, backup *origin, backupIdx int, probe bool) (attemptResult, error) {

	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan attemptResult, 2)
	launch := func(o *origin, idx int, hedge, probe bool) {
		name := "fleet.fetch"
		if hedge {
			name = "fleet.hedge"
		}
		rctx, sp := trace.StartSpan(actx, name, trace.A("origin", idx))
		t0 := f.now()
		res, err := f.fetchOnce(rctx, o, path, etag)
		d := f.now().Sub(t0)
		now := f.now()
		switch {
		case err == nil:
			o.brk.Success(now)
			f.lat.observe(d)
		case actx.Err() != nil:
			// Cancelled from outside (the race was decided, or the
			// caller gave up): not an origin health signal.
			if probe {
				o.brk.ReleaseProbe()
			}
			if hedge {
				f.hedgeCancelled.IncExemplar(sp.TraceHex())
			}
			sp.SetError("cancelled")
		default:
			o.brk.Failure(now)
			f.originFailure(idx, err)
			sp.SetError(client.ErrorClass(err))
		}
		f.refreshGauges()
		sp.End()
		ch <- attemptResult{res: res, err: err, hedge: hedge, idx: idx}
	}

	f.countRequest(idx)
	go launch(o, idx, false, probe)
	pending := 1

	var hedgeC <-chan time.Time
	if backup != nil && f.pol.HedgingEnabled() && !probe {
		t := time.NewTimer(f.hedgeDelay())
		defer t.Stop()
		hedgeC = t.C
	}
	var firstErr error
	for {
		select {
		case <-hedgeC:
			hedgeC = nil
			adm, bprobe := Admit(backup.brk, f.budget, f.now(), true)
			if adm == BudgetDry {
				f.budgetExhausted.IncExemplar(span.TraceHex())
			}
			if adm != Admitted {
				continue
			}
			f.hedgeIssued.IncExemplar(span.TraceHex())
			f.countRequest(backupIdx)
			go launch(backup, backupIdx, true, bprobe)
			pending++
		case r := <-ch:
			pending--
			if r.err == nil {
				cancel() // first definitive answer wins; the loser unwinds as cancelled
				if r.hedge {
					f.hedgeWins.IncExemplar(span.TraceHex())
					if f.cfg.Log != nil {
						f.cfg.Log.Logger().Info("fleet_hedge_win", "path", path, "origin", r.idx)
					}
				}
				return r, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if pending == 0 {
				return attemptResult{}, firstErr
			}
		case <-ctx.Done():
			return attemptResult{}, ctx.Err()
		}
	}
}

// fetchOnce is a single-attempt FetchRaw against one origin: retries
// across attempts and origins belong to the fleet ladder, not the
// per-origin client.
func (f *Fleet) fetchOnce(ctx context.Context, o *origin, path, etag string) (client.RawResult, error) {
	pol := f.pol
	pol.MaxAttempts = 1
	return o.cli.FetchRaw(ctx, path, etag, pol, nil)
}

func (f *Fleet) countRequest(idx int) {
	o := f.ors[idx]
	f.cfg.Obs.CounterIn(&o.requests, "pano_fleet_requests_total",
		"origin requests issued by the fleet (primaries, failovers, and hedges)",
		obs.L("origin", o.label)).Inc()
}

func (f *Fleet) originFailure(idx int, err error) {
	f.cfg.Obs.Counter("pano_fleet_failures_total",
		"origin requests that failed, by origin and error class",
		obs.L("origin", f.ors[idx].label), obs.L("class", client.ErrorClass(err))).Inc()
}

// latTracker keeps a small reservoir of recent successful fetch
// latencies and reports their p95 for the adaptive hedge delay. The
// reservoir is held twice — in arrival order, to know which sample the
// next one evicts, and ascending — so that p95, which every hedged
// attempt reads, is an index, and observe moves at most the 128 sorted
// samples.
type latTracker struct {
	mu     sync.Mutex
	buf    [128]time.Duration // ring, arrival order
	sorted [128]time.Duration // the same n samples, ascending
	n      int                // filled entries
	next   int                // ring write position
}

func newLatTracker() *latTracker { return &latTracker{} }

func (l *latTracker) observe(d time.Duration) {
	l.mu.Lock()
	s := l.sorted[:l.n]
	if l.n == len(l.buf) {
		evicted, _ := slices.BinarySearch(s, l.buf[l.next])
		s = slices.Delete(s, evicted, evicted+1)
	} else {
		l.n++
	}
	at, _ := slices.BinarySearch(s, d)
	s = s[:len(s)+1]
	copy(s[at+1:], s[at:])
	s[at] = d
	l.buf[l.next] = d
	l.next = (l.next + 1) % len(l.buf)
	l.mu.Unlock()
}

// p95 returns the 95th percentile of the reservoir (0 when empty — the
// caller clamps it).
func (l *latTracker) p95() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n == 0 {
		return 0
	}
	return l.sorted[l.n*95/100]
}
