// Package telemetry is the repo's third observability pillar: where
// internal/obs answers "what is the value now" and internal/trace
// answers "what happened in this one session", telemetry answers "how
// has the fleet behaved over the last minutes, and should a human be
// paged". It periodically scrapes an obs.Registry into fixed-size
// ring-buffer windowed series (counter deltas/rates, gauge samples,
// histogram bucket deltas with interpolated quantile estimation),
// samples Go runtime health into the same store, and evaluates
// declarative QoE SLOs with multi-window burn-rate alerting
// (fast/slow windows, ok→warn→page with flap damping). State is
// served as JSON at /debug/slo and as a self-contained live SSE
// dashboard at /debug/dash.
//
// Like obs and trace, a nil *Sampler is a valid no-op: every method is
// nil-safe, and the serve-path wiring (server.WithTelemetry,
// edge.Config.Telemetry) mounts nothing when the sampler is nil, so
// disabled telemetry costs zero on the request path.
package telemetry

import (
	"encoding/json"
	"sync"
	"time"

	"pano/internal/obs"
)

// Config tunes a Sampler.
type Config struct {
	// Obs is the registry to scrape AND the sink for telemetry's own
	// signals (SLO state gauges, transition counters, self-metrics).
	// Required.
	Obs *obs.Registry
	// Interval is the scrape period (default 1s). Each series ring
	// retains window/Interval samples, capped at 7200.
	Interval time.Duration
	// SLOs is the objective set to evaluate each tick (nil =
	// DefaultSLOs()). An explicitly empty non-nil slice evaluates none.
	SLOs []SLO
	// Log receives slo_transition events (and the sampler's lifecycle
	// events); nil disables. Its ring-buffer drop count is mirrored as
	// pano_events_dropped_total when ObserveDrops was wired.
	Log *obs.EventLog
}

// window is how much history each series ring retains: enough to cover
// the default slow burn window.
const window = time.Hour

// Sampler periodically scrapes a registry into the windowed store and
// evaluates SLO burn rates. Create with New, then either Start (wall
// clock) or drive Step directly (tests, simulations — logical time).
// All methods are nil-safe.
type Sampler struct {
	cfg   Config
	store *Store
	rt    *runtimeSampler
	// fed, set by NewPlane only, replaces the Obs.Snapshot() scrape with
	// the federated rollup and adds its per-instance dashboard panels.
	fed *Scraper

	mu    sync.Mutex
	evals []*sloEval
	lastT time.Time

	scrapes   *obs.Counter
	scrapeSec *obs.Histogram
	seriesLen *obs.Gauge
	transCt   func(slo, to string) // transition counter helper

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}

	subMu sync.Mutex
	subs  map[chan []byte]struct{}
	// sseDropped counts snapshots not delivered to slow SSE clients.
	sseDropped *obs.Counter
}

// New returns a sampler over cfg.Obs that also samples Go runtime
// health (heap, GC pauses, goroutines, scheduler latency). Returns nil
// (the no-op sampler) when cfg.Obs is nil.
func New(cfg Config) *Sampler { return newSampler(cfg, true) }

func newSampler(cfg Config, runtime bool) *Sampler {
	if cfg.Obs == nil {
		return nil
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.SLOs == nil {
		cfg.SLOs = DefaultSLOs()
	}
	capN := int(window / cfg.Interval)
	if capN < 2 {
		capN = 2
	}
	if capN > 7200 {
		capN = 7200
	}
	reg := cfg.Obs
	s := &Sampler{
		cfg:   cfg,
		store: NewStore(capN),
		scrapes: reg.Counter("pano_telemetry_scrapes_total",
			"registry scrapes into the windowed telemetry store"),
		scrapeSec: reg.Histogram("pano_telemetry_scrape_seconds",
			"wall time of one scrape+evaluate tick", obs.ExponentialBuckets(1e-6, 4, 10)),
		seriesLen: reg.Gauge("pano_telemetry_series",
			"distinct series held by the windowed store"),
		stop: make(chan struct{}),
		done: make(chan struct{}),
		subs: make(map[chan []byte]struct{}),
		sseDropped: reg.Counter("pano_telemetry_sse_dropped_total",
			"dashboard snapshots dropped because an SSE client was slow"),
	}
	if runtime {
		s.rt = newRuntimeSampler(reg)
	}
	for _, slo := range cfg.SLOs {
		slo = slo.withDefaults()
		s.evals = append(s.evals, &sloEval{
			slo: slo,
			stateGauge: reg.Gauge("pano_slo_state",
				"current SLO alert state (0 ok, 1 warn, 2 page)", obs.L("slo", slo.Name)),
		})
	}
	s.transCt = func(slo, to string) {
		reg.Counter("pano_slo_transitions_total",
			"SLO alert-state transitions by objective and destination state",
			obs.L("slo", slo), obs.L("to", to)).Inc()
	}
	return s
}

// Step performs one scrape+evaluate tick at logical time now. Tests
// and deterministic simulations call this directly with synthetic
// time; Start drives it with wall time. Safe for concurrent use with
// readers, but ticks themselves are serialized.
func (s *Sampler) Step(now time.Time) {
	if s == nil {
		return
	}
	t0 := time.Now()
	var snap []obs.SnapshotSeries
	if s.fed != nil {
		// Federation: collect before taking the lock — it blocks on the
		// network, and readers must stay responsive.
		snap = s.fed.Collect(now)
	}
	s.mu.Lock()
	if s.rt != nil {
		s.rt.sample()
	}
	if s.fed == nil {
		snap = s.cfg.Obs.Snapshot()
	}
	s.store.Observe(now, snap)
	s.seriesLen.Set(float64(s.store.Len()))

	type transition struct {
		slo      SLO
		from, to SLOState
		status   SLOStatus
	}
	var trans []transition
	for _, e := range s.evals {
		if from, to, changed := e.evaluate(s.store, now); changed {
			trans = append(trans, transition{slo: e.slo, from: from, to: to, status: e.last})
		}
	}
	s.lastT = now
	s.mu.Unlock()

	for _, tr := range trans {
		s.transCt(tr.slo.Name, tr.to.String())
		s.cfg.Log.Logger().Warn("slo_transition",
			"slo", tr.slo.Name, "from", tr.from.String(), "to", tr.to.String(),
			"burn_fast", tr.status.BurnFast, "burn_slow", tr.status.BurnSlow,
			"value", tr.status.Value)
	}
	s.scrapes.Inc()
	s.scrapeSec.Observe(time.Since(t0).Seconds())
	s.publish(now)
}

// Start launches the wall-clock sampling loop. Idempotent; a nil
// sampler ignores it.
func (s *Sampler) Start() {
	if s == nil {
		return
	}
	s.startOnce.Do(func() {
		go func() {
			defer close(s.done)
			tick := time.NewTicker(s.cfg.Interval)
			defer tick.Stop()
			s.Step(time.Now())
			for {
				select {
				case <-s.stop:
					return
				case t := <-tick.C:
					s.Step(t)
				}
			}
		}()
	})
}

// Stop halts the sampling loop and waits for it to exit. Safe to call
// multiple times, on a never-started sampler, and on nil. Implements
// graceful.Stopper, so pano binaries hand the sampler straight to
// graceful.Serve for shutdown.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.stopOnce.Do(func() { close(s.stop) })
	s.startOnce.Do(func() { close(s.done) }) // never started: release waiters
	<-s.done
}

// States returns each SLO's latest evaluation, in configuration order.
func (s *Sampler) States() []SLOStatus {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SLOStatus, len(s.evals))
	for i, e := range s.evals {
		out[i] = e.last
		if out[i].Name == "" {
			// Never evaluated yet: report the configured shape at ok.
			out[i] = e.slo.status(StateOK)
		}
	}
	return out
}

// State returns one SLO's current alert state (StateOK when unknown).
func (s *Sampler) State(name string) SLOState {
	if s == nil {
		return StateOK
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.evals {
		if e.slo.Name == name {
			return e.state
		}
	}
	return StateOK
}

// subscribe registers an SSE client; the returned cancel must be
// called when the client disconnects.
func (s *Sampler) subscribe() (ch chan []byte, cancel func()) {
	ch = make(chan []byte, 4)
	s.subMu.Lock()
	s.subs[ch] = struct{}{}
	s.subMu.Unlock()
	return ch, func() {
		s.subMu.Lock()
		delete(s.subs, ch)
		s.subMu.Unlock()
	}
}

// publish fans the current dashboard snapshot out to SSE clients
// (non-blocking: a slow client drops snapshots, not the sampler).
func (s *Sampler) publish(now time.Time) {
	s.subMu.Lock()
	n := len(s.subs)
	s.subMu.Unlock()
	if n == 0 {
		return
	}
	payload, err := json.Marshal(s.dashSnapshot(now))
	if err != nil {
		return
	}
	s.subMu.Lock()
	for ch := range s.subs {
		select {
		case ch <- payload:
		default:
			s.sseDropped.Inc()
		}
	}
	s.subMu.Unlock()
}
