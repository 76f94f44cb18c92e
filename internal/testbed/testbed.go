// Package testbed stands up the delivery stack in one process, over
// loopback HTTP: N origins (in memory or over a shared store directory)
// → M caching edges → a fan-out of client sessions. It owns what every
// multi-hop experiment needs and none should hand-roll: tile counter,
// kill switch, middleware order, pooled transports, breaker poll, Close.
package testbed

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pano/internal/chaos"
	"pano/internal/client"
	"pano/internal/edge"
	"pano/internal/fleet"
	"pano/internal/manifest"
	"pano/internal/mathx"
	"pano/internal/obs"
	"pano/internal/server"
	"pano/internal/store"
	"pano/internal/telemetry"
	"pano/internal/trace"
)

// Testbed is one stack: AddOrigin, then AddEdge, run sessions against
// Origins[i].URL or Edges[i].URL, Close when done. A failed Add closes
// everything already started, so callers just return its error.
type Testbed struct {
	Origins []*Origin
	Edges   []*Edge

	catalogWait time.Duration // a store-backed origin's wait for the publisher's first catalog
	sessions    *ttfb
	procs       uint64
	closers     []func()
}

// New returns an empty testbed.
func New() *Testbed {
	tb := &Testbed{catalogWait: 10 * time.Second}
	tb.sessions = &ttfb{base: tb.transport()}
	return tb
}

// Close stops everything the testbed started, newest first; idempotent.
func (tb *Testbed) Close() {
	for i := len(tb.closers) - 1; i >= 0; i-- {
		tb.closers[i]()
	}
	tb.closers = nil
}

// transport pools enough idle connections per host for dozens of
// concurrent sessions — the default of 2 would measure connection churn.
func (tb *Testbed) transport() *http.Transport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 80
	tb.closers = append(tb.closers, tr.CloseIdleConnections)
	return tr
}

func (tb *Testbed) serve(h http.Handler) string {
	ts := httptest.NewServer(h)
	tb.closers = append(tb.closers, ts.Close)
	return ts.URL
}

// NewObs allocates the next in-process "machine" its own registry (with
// build info) and tracer. Seeds are high-bit separated: trace ids mix
// seed^counter, so adjacent small seeds collide at small counters.
func (tb *Testbed) NewObs() (*obs.Registry, *trace.Tracer) {
	tb.procs++
	reg := obs.NewRegistry()
	obs.ExportBuildInfo(reg)
	return reg, trace.New(trace.Config{Obs: reg, Seed: tb.procs << 16})
}

// ServeOps serves the ops surface of a process with no video behind it
// (a client, like pano-player's -telemetry-addr) and returns its URL.
func (tb *Testbed) ServeOps(reg *obs.Registry, tracer *trace.Tracer) string {
	mux := http.NewServeMux()
	telemetry.Mount(mux, reg, nil, tracer, nil)
	return tb.serve(mux)
}

// OriginConfig describes one origin: set Manifest or StoreDir, not both.
type OriginConfig struct {
	// Manifest makes an in-memory origin (server.New).
	Manifest *manifest.Video
	// StoreDir makes a stateless origin over a store directory shared
	// with a publisher and other origins. The publisher may still be
	// starting: bring-up waits, bounded, for its first catalog.
	StoreDir string
	// Chaos injects faults or latency in front of the server handler.
	Chaos *chaos.Injector
	// Obs and Tracer attach the process's observability to the server.
	Obs    *obs.Registry
	Tracer *trace.Tracer
}

// Origin is one running origin. Its handler chain, outermost first:
// kill switch (a dead origin resets even /metrics scrapes and /healthz
// probes — what breakers and federation staleness must absorb) → tile
// counter → trace.Middleware (outside chaos, so injected faults annotate
// the span a traced client's traceparent opened) → chaos → server.
type Origin struct {
	URL   string
	Store *store.Store // its own handle on StoreDir (nil on in-memory origins)
	h     http.Handler
	tiles atomic.Int64
	down  atomic.Bool
}

func (o *Origin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if o.down.Load() {
		panic(http.ErrAbortHandler)
	}
	if strings.HasPrefix(r.URL.Path, "/video/") {
		o.tiles.Add(1)
	}
	o.h.ServeHTTP(w, r)
}

// Kill makes every request reset its connection mid-response, until Revive.
func (o *Origin) Kill()   { o.down.Store(true) }
func (o *Origin) Revive() { o.down.Store(false) }

// TileRequests counts the /video/ requests that reached the origin.
func (o *Origin) TileRequests() int64 { return o.tiles.Load() }

// AddOrigin starts one origin and appends it to Origins.
func (tb *Testbed) AddOrigin(cfg OriginConfig) (*Origin, error) {
	o := &Origin{}
	srv, err := tb.newServer(cfg, o)
	if err != nil {
		tb.Close()
		return nil, err
	}
	o.h = srv.Handler()
	if cfg.Chaos != nil {
		o.h = cfg.Chaos.Wrap(o.h)
	}
	o.h = trace.Middleware(cfg.Tracer, o.h)
	o.URL = tb.serve(o)
	tb.Origins = append(tb.Origins, o)
	return o, nil
}

func (tb *Testbed) newServer(cfg OriginConfig, o *Origin) (_ *server.Server, err error) {
	opts := []server.Option{server.WithObs(cfg.Obs), server.WithTracer(cfg.Tracer)}
	if cfg.StoreDir == "" {
		return server.New(cfg.Manifest, opts...)
	}
	if o.Store, err = store.Open(cfg.StoreDir, store.WithObs(cfg.Obs)); err != nil {
		return nil, err
	}
	for deadline := time.Now().Add(tb.catalogWait); ; time.Sleep(2 * time.Millisecond) {
		b, err := store.NewBackend(o.Store)
		if err == nil {
			return server.NewBackend(b, opts...)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("testbed: no catalog in %s after %v: %w", cfg.StoreDir, tb.catalogWait, err)
		}
	}
}

// Edge is one running caching edge and its front URL.
type Edge struct {
	*edge.Edge
	URL string
}

// AddEdge starts one edge from the template and appends it to Edges. The
// testbed fills in topology: the upstream is a fleet of every origin
// started so far, the transport is pooled, and trace.Middleware fronts
// the handler.
func (tb *Testbed) AddEdge(cfg edge.Config) (*Edge, error) {
	for _, o := range tb.Origins {
		cfg.Origins = append(cfg.Origins, o.URL)
	}
	cfg.HTTP = &http.Client{Transport: tb.transport()}
	e, err := edge.New(cfg)
	if err != nil {
		tb.Close()
		return nil, err
	}
	tb.closers = append(tb.closers, e.Close)
	te := &Edge{Edge: e, URL: tb.serve(trace.Middleware(cfg.Tracer, e.Handler()))}
	tb.Edges = append(tb.Edges, te)
	return te, nil
}

// WaitBreaker polls every edge until all agree on origin's
// breaker — Closed when want is fleet.Closed, anything but Closed
// otherwise — and returns how long that took; it errors at the timeout.
func (tb *Testbed) WaitBreaker(origin int, want fleet.BreakerState, timeout time.Duration) (time.Duration, error) {
	for t0 := time.Now(); ; time.Sleep(2 * time.Millisecond) {
		agree := 0
		for _, e := range tb.Edges {
			if (e.Fleet().Snapshot()[origin].Breaker == fleet.Closed) == (want == fleet.Closed) {
				agree++
			}
		}
		if agree == len(tb.Edges) {
			return time.Since(t0), nil
		}
		if time.Since(t0) > timeout {
			return 0, fmt.Errorf("testbed: origin %d breaker %v on %d/%d edges after %v", origin, want, agree, len(tb.Edges), timeout)
		}
	}
}

// LoopbackPolicy is every loopback experiment's fetch policy: backoffs
// scaled to a sub-millisecond RTT (the point is counts and fractions;
// the bound semantics are identical at any time scale).
func LoopbackPolicy() client.FetchPolicy {
	return client.FetchPolicy{
		MaxAttempts:       3,
		BaseBackoff:       500 * time.Microsecond,
		MaxBackoff:        2 * time.Millisecond,
		JitterFrac:        0.5,
		AttemptTimeout:    2 * time.Second,
		MinAttemptTimeout: 20 * time.Millisecond,
	}
}

// RateCap is the StreamConfig.MaxRateBps that keeps adaptation
// independent of loopback throughput noise.
func RateCap(m *manifest.Video) float64 {
	return 0.35 * m.ChunkBits(0, 0) / m.ChunkSec
}

// Client returns a streaming client for url on the pooled, recording
// transport all of the testbed's session clients share.
func (tb *Testbed) Client(url string) *client.Client {
	return &client.Client{BaseURL: url, HTTP: &http.Client{Transport: tb.sessions}}
}

// TileTTFB is the time to first byte, in milliseconds, of every /video/
// request the testbed's clients made (failed ones included).
func (tb *Testbed) TileTTFB() *mathx.CDF {
	tb.sessions.mu.Lock()
	defer tb.sessions.mu.Unlock()
	return mathx.NewCDF(tb.sessions.ms)
}

type ttfb struct {
	base http.RoundTripper
	mu   sync.Mutex
	ms   []float64
}

func (t *ttfb) RoundTrip(req *http.Request) (*http.Response, error) {
	if !strings.HasPrefix(req.URL.Path, "/video/") {
		return t.base.RoundTrip(req)
	}
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	t.mu.Lock()
	t.ms = append(t.ms, float64(time.Since(t0).Microseconds())/1000)
	t.mu.Unlock()
	return resp, err
}

// Sessions runs n sessions concurrently, session u starting u×stagger
// after the first (early viewers fill the caches the rest hit). It
// returns the finished results in u order and how many sessions aborted.
func Sessions(n int, stagger time.Duration, run func(u int) (*client.StreamResult, error)) ([]*client.StreamResult, int) {
	outs := make([]*client.StreamResult, n)
	var wg sync.WaitGroup
	for u := 0; u < n; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			time.Sleep(time.Duration(u) * stagger)
			if out, err := run(u); err == nil {
				outs[u] = out
			}
		}(u)
	}
	wg.Wait()
	done := outs[:0]
	for _, out := range outs {
		if out != nil {
			done = append(done, out)
		}
	}
	return done, n - len(done)
}
