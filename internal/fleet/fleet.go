package fleet

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pano/internal/client"
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
	once   client.FetchPolicy // one attempt: retries belong to the ladder
	ring   *Ring
	ors    []*origin
	lad    *Policy
	budget *Budget          // lad's
	now    func() time.Time // the wall clock; tests set a fake one
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
		ring: NewRing(cfg.Origins, defaultVnodes),
		now:  time.Now,
		stop: make(chan struct{}),
		lad:  NewPolicy(cfg.Fetch, cfg.Breaker, len(cfg.Origins), cfg.Seed^0xb4ea),
	}
	f.budget = f.lad.Budget()
	f.once = f.lad.fetch
	f.once.MaxAttempts = 1
	for i, u := range cfg.Origins {
		cli := client.New(u)
		if cfg.HTTP != nil {
			cli.HTTP = cfg.HTTP
		}
		o := &origin{
			url:   u,
			cli:   cli,
			brk:   f.lad.Breaker(i),
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

// Fetch routes one conditional GET through the fleet: it walks the
// key's Ladder, whose doc comment is the policy. It returns the first
// definitive origin answer; like client.FetchRaw, ctx cancellation and
// exhaustion (of attempts, breakers or budget) are the only error paths.
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
		span.Annotate(trace.A("owner", order[0]))
	}
	l := new(Ladder) // the hedge timer may reach it
	f.lad.Start(l, order, f.cfg.Seed^key^f.seq.Add(1)*0x9e3779b97f4a7c15)
	defer l.End()
	start := f.now()
	for {
		switch l.Next(f.now()) {
		case Backoff:
			if err := (client.RealClock{}).Sleep(ctx, l.Backoff()); err != nil {
				return client.RawResult{}, err
			}
			continue
		case Dry:
			f.budgetExhausted.IncExemplar(span.TraceHex())
			span.SetError("budget_exhausted")
			return client.RawResult{}, fmt.Errorf("fleet: %s: retry budget exhausted after %d attempts: %w", path, l.Attempts(), l.Err())
		case Exhausted:
			err, class := l.Err(), "unavailable"
			if err != ErrUnavailable {
				class = client.ErrorClass(err)
			}
			span.SetError(class)
			return client.RawResult{}, fmt.Errorf("fleet: %s: all origins failed: %w", path, err)
		}
		r := f.attempt(ctx, l, span, path, etag)
		if r.err == nil {
			if span != nil {
				span.Annotate(trace.A("origin", r.idx), trace.A("attempts", l.Attempts()))
			}
			if l.Failover() {
				f.failovers.Inc()
			}
			if l.Attempts() > 1 {
				f.failoverSec.ObserveExemplar(f.now().Sub(start).Seconds(), span.TraceHex())
			}
			return r.res, nil
		}
		if ctx.Err() != nil {
			return client.RawResult{}, ctx.Err()
		}
		if f.cfg.Log != nil {
			f.cfg.Log.Logger().Warn("fleet_failover",
				"path", path, "origin", r.idx, "class", client.ErrorClass(r.err))
		}
	}
}

// reply is one origin request's result, classified as it returned.
type reply struct {
	res   client.RawResult
	err   error
	out   Outcome
	took  time.Duration
	idx   int
	hedge bool
}

// attempt runs the ladder's current rung. The primary runs on the
// calling goroutine; if the hedge delay expires first, the timer admits
// the backup and starts it on a goroutine of its own, and whichever
// answers first cancels the other. Outcomes reach the ladder from this
// goroutine only, the answer first; the reply is the answer, or the
// primary's failure.
func (f *Fleet) attempt(ctx context.Context, l *Ladder, span *trace.Span, path, etag string) reply {
	primary := l.Origin()
	delay, hedgeable := l.HedgeDelay()
	if !hedgeable || l.Backup() < 0 {
		p := f.request(ctx, span, primary, false, path, etag)
		f.resolve(l, span, p)
		return p
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	var race struct {
		sync.Mutex
		settled bool       // the primary returned: no hedge may start
		hedge   chan reply // set when the backup starts
	}
	t := time.AfterFunc(delay, func() {
		race.Lock()
		defer race.Unlock()
		if race.settled {
			return
		}
		if adm := l.Hedge(f.now()); adm != Admitted {
			if adm == BudgetDry {
				f.budgetExhausted.IncExemplar(span.TraceHex())
			}
			return
		}
		f.hedgeIssued.IncExemplar(span.TraceHex())
		race.hedge = make(chan reply, 1)
		go func(idx int, out chan<- reply) {
			r := f.request(actx, span, idx, true, path, etag)
			if r.err == nil {
				cancel()
			}
			out <- r
		}(l.Backup(), race.hedge)
	})
	p := f.request(actx, span, primary, false, path, etag)
	t.Stop()
	race.Lock()
	race.settled = true
	race.Unlock()
	if race.hedge == nil {
		f.resolve(l, span, p)
		return p
	}
	if p.err == nil {
		cancel() // the backup lost
	}
	h := <-race.hedge
	if p.out != Answered && h.out == Answered {
		f.hedgeWins.IncExemplar(span.TraceHex())
		if f.cfg.Log != nil {
			f.cfg.Log.Logger().Info("fleet_hedge_win", "path", path, "origin", h.idx)
		}
		p, h = h, p
	}
	f.resolve(l, span, p)
	f.resolve(l, span, h)
	return p
}

// request sends one request to origin idx. One cut short by actx — the
// race was decided, or the caller gave up — is not a health signal.
func (f *Fleet) request(actx context.Context, span *trace.Span, idx int, hedge bool, path, etag string) reply {
	f.countRequest(idx)
	rctx, sp := actx, (*trace.Span)(nil)
	if span != nil {
		name := "fleet.fetch"
		if hedge {
			name = "fleet.hedge"
		}
		rctx, sp = trace.StartSpan(actx, name, trace.A("origin", idx))
	}
	t0 := f.now()
	res, err := f.ors[idx].cli.FetchRaw(rctx, path, etag, f.once, nil)
	r := reply{res: res, err: err, took: f.now().Sub(t0), idx: idx, hedge: hedge}
	switch {
	case err != nil && actx.Err() != nil:
		r.out = Cancelled
		sp.SetError("cancelled")
	case err != nil:
		r.out = Failed
		sp.SetError(client.ErrorClass(err))
	}
	sp.End()
	return r
}

// resolve hands one request's outcome to the ladder and the metrics.
func (f *Fleet) resolve(l *Ladder, span *trace.Span, r reply) {
	l.Resolve(r.hedge, r.out, r.err, f.now(), r.took)
	switch {
	case r.out == Failed:
		f.originFailure(r.idx, r.err)
	case r.out == Cancelled && r.hedge:
		f.hedgeCancelled.IncExemplar(span.TraceHex())
	}
	f.refreshGauges()
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
