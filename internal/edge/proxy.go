package edge

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"pano/internal/client"
	"pano/internal/fleet"
	"pano/internal/manifest"
	"pano/internal/obs"
	"pano/internal/telemetry"
	"pano/internal/trace"
	"pano/internal/viewport"
)

// Config tunes an Edge.
type Config struct {
	// Origins are the origin base URLs, e.g. "http://origin:8360"; at
	// least one is required. Every cache fill routes through
	// internal/fleet (consistent-hash placement, circuit breakers, ring
	// failover, hedged fetches when there is a second origin); one
	// origin is a one-shard fleet.
	Origins []string
	// ProbeInterval enables the fleet's active health probes (0 =
	// passive signals alone).
	ProbeInterval time.Duration
	// Breaker tunes the fleet's per-origin circuit breakers (zero value
	// = fleet defaults).
	Breaker fleet.BreakerConfig
	// CacheBytes is the cache budget. 0 disables caching entirely: the
	// edge becomes a transparent pass-through proxy whose responses are
	// byte-identical to talking to the origin directly.
	CacheBytes int64
	// TTL is the freshness lifetime of positive entries (default 60s).
	TTL time.Duration
	// NegTTL is the lifetime of negative (non-200) entries (default 5s):
	// long enough to absorb a stampede of bad requests, short enough
	// that a fixed origin recovers quickly.
	NegTTL time.Duration
	// StaleFor is how long past expiry an entry may still be served when
	// the origin is faulty — revalidation degradations serve stale
	// within this window instead of erroring (default 5m).
	StaleFor time.Duration
	// Fetch tunes the fleet's fill ladder (rounds, backoff, attempt
	// timeout, hedging); the zero value selects client.DefaultFetchPolicy.
	// This is the same policy type the streaming client uses, so a
	// chaos-wrapped origin degrades identically for both.
	Fetch client.FetchPolicy
	// PrefetchBudget enables prediction-driven prefetch when > 0: the
	// token budget bounding how many tiles may be warmed; tokens refill
	// one per demand request, so prefetch can never outrun (and thus
	// starve) demand.
	PrefetchBudget int
	// Peers are other users' viewpoint traces for the served video; with
	// peers the prefetcher warms the tiles under their consensus
	// viewpoint (cross-user prediction), without it falls back to the
	// cross-user demand the edge itself has observed.
	Peers []*viewport.Trace
	// Obs, Log, and Tracer attach metrics, structured events, and spans;
	// nil disables each at zero cost.
	Obs    *obs.Registry
	Log    *obs.EventLog
	Tracer *trace.Tracer
	// Telemetry, when set, mounts /debug/slo and /debug/dash on Handler
	// (the caller owns its Start/Stop lifecycle); nil mounts nothing.
	Telemetry *telemetry.Sampler
	// HTTP overrides the origin transport (tests); nil gives each origin
	// and the pass-through relay the client package's default.
	HTTP *http.Client
}

func (c Config) withDefaults() Config {
	if c.TTL <= 0 {
		c.TTL = 60 * time.Second
	}
	if c.NegTTL <= 0 {
		c.NegTTL = 5 * time.Second
	}
	if c.StaleFor <= 0 {
		c.StaleFor = 5 * time.Minute
	}
	return c
}

// Edge is the caching reverse proxy. Create with New, mount Handler,
// Close when done (stops prefetch workers).
type Edge struct {
	cfg    Config
	fl     *fleet.Fleet
	cache  *Cache // nil = pass-through mode
	flight flightGroup
	pf     *prefetcher

	reg    *obs.Registry
	log    *obs.EventLog
	tracer *trace.Tracer

	man     atomic.Pointer[manifest.Video]
	hitN    atomic.Uint64 // cache-absorbed requests (fresh/304/coalesced/stale)
	missN   atomic.Uint64 // full origin body fetches
	evictCt *obs.Counter

	// The series a request touches whose labels come from closed sets —
	// which endpoint, where the bytes came from — are resolved by the
	// first request that needs them (obs.CounterIn: no series exists
	// before the traffic that would have created it) and kept. The
	// per-status counter is a plain labelled lookup (requestDone).
	manifestEP, mpdEP, tileEP, prefetchEP endpointSeries
	bytesBy                               [numSources]atomic.Pointer[obs.Counter]
	hitRatio                              atomic.Pointer[obs.Gauge]
}

// endpointSeries are one endpoint's per-request series.
type endpointSeries struct {
	name                             string
	hits, misses, coalesced, fetches atomic.Pointer[obs.Counter]
}

// source says where a response's bytes came from: the X-Cache value and
// the pano_edge_bytes_total label.
type source int

const (
	srcHit source = iota
	srcStale
	srcCoalesced
	srcRevalidated
	srcMiss
	srcOrigin      // bytes fetched from the origin by a fill
	srcPassthrough // bytes relayed with caching off
	numSources
)

var sourceNames = [numSources]string{"hit", "stale", "coalesced", "revalidated", "miss", "origin", "passthrough"}

func (s source) String() string { return sourceNames[s] }

// xCache holds each source's X-Cache header value, shared by every
// response (net/http only reads it).
var xCache = func() (v [numSources][]string) {
	for i, n := range sourceNames {
		v[i] = []string{n}
	}
	return v
}()

// New validates cfg and returns an Edge; fleet.New rejects an empty or
// malformed Origins.
func New(cfg Config) (*Edge, error) {
	fl, err := fleet.New(fleet.Config{
		Origins:       cfg.Origins,
		Fetch:         cfg.Fetch,
		Breaker:       cfg.Breaker,
		ProbeInterval: cfg.ProbeInterval,
		Seed:          cfg.Fetch.Seed,
		HTTP:          cfg.HTTP,
		Obs:           cfg.Obs,
		Log:           cfg.Log,
	})
	if err != nil {
		return nil, fmt.Errorf("edge: %v", err)
	}
	cfg = cfg.withDefaults()
	if cfg.HTTP == nil {
		// The pass-through relay's transport; the fleet keeps its own
		// client per origin.
		cfg.HTTP = client.New("").HTTP
	}
	e := &Edge{
		cfg:    cfg,
		fl:     fl,
		reg:    cfg.Obs,
		log:    cfg.Log,
		tracer: cfg.Tracer,
	}
	e.manifestEP.name, e.mpdEP.name, e.tileEP.name, e.prefetchEP.name = "manifest", "mpd", "tile", "prefetch"
	if cfg.CacheBytes > 0 {
		e.cache = NewCache(cfg.CacheBytes, cfg.StaleFor)
		e.reg.Gauge("pano_edge_cache_budget_bytes", "configured cache byte budget").
			Set(float64(cfg.CacheBytes))
	}
	e.evictCt = e.reg.Counter("pano_edge_evictions_total",
		"cache entries removed by byte-budget pressure")
	if cfg.PrefetchBudget > 0 && e.cache != nil {
		e.pf = newPrefetcher(e, cfg)
	}
	return e, nil
}

// Close stops the prefetch workers and the fleet's health probers.
func (e *Edge) Close() {
	if e.pf != nil {
		e.pf.close()
	}
	e.fl.Close()
}

// Fleet returns the origin fleet.
func (e *Edge) Fleet() *fleet.Fleet { return e.fl }

// DrainPrefetch blocks until every enqueued prefetch job has finished —
// deterministic warm-state for tests and benchmarks.
func (e *Edge) DrainPrefetch() {
	if e.pf != nil {
		e.pf.drain()
	}
}

// Manifest returns the origin manifest the edge has learned from
// traffic (nil until a manifest response passes through).
func (e *Edge) Manifest() *manifest.Video { return e.man.Load() }

// CacheBytes reports the bytes currently held by the cache (0 in
// pass-through mode).
func (e *Edge) CacheBytes() int64 {
	if e.cache == nil {
		return 0
	}
	return e.cache.Bytes()
}

// Handler returns the HTTP handler:
//
//	GET /manifest.json, /manifest.mpd, /video/{chunk}/{tile}/{level}.bin
//	    — proxied (and, unless CacheBytes is 0, cached) from the origin
//
// plus the shared ops surface (telemetry.Mount): /healthz always, and
// /metrics, /debug/events, /debug/traces, /debug/slo + /debug/dash for
// whichever of Obs, Log, Tracer, Telemetry is set — the same handlers,
// and so the same bytes, as the origin's.
//
// Callers that want edge spans stitched into client traces should wrap
// the handler in trace.Middleware (outermost), exactly like the origin
// server.
func (e *Edge) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/manifest.json", func(w http.ResponseWriter, r *http.Request) {
		e.proxy(&e.manifestEP, w, r)
	})
	mux.HandleFunc("/manifest.mpd", func(w http.ResponseWriter, r *http.Request) {
		e.proxy(&e.mpdEP, w, r)
	})
	mux.HandleFunc("/video/", func(w http.ResponseWriter, r *http.Request) {
		e.proxy(&e.tileEP, w, r)
	})
	telemetry.Mount(mux, e.reg, e.log, e.tracer, e.cfg.Telemetry)
	return mux
}

// proxy serves one cacheable origin object.
func (e *Edge) proxy(ep *endpointSeries, w http.ResponseWriter, r *http.Request) {
	if !obs.AllowGetHead(w, r) {
		return
	}
	if e.cache == nil {
		e.passthrough(ep, w, r)
		return
	}
	path := r.URL.Path
	// Span attributes and annotations box their values: under an untraced
	// request (lsp nil) none is built.
	ctx, lsp := r.Context(), (*trace.Span)(nil)
	if trace.FromContext(ctx) != nil {
		ctx, lsp = trace.StartSpan(ctx, "edge.lookup",
			trace.A("component", "edge"), trace.A("endpoint", ep.name), trace.A("path", path))
		defer lsp.End()
	}
	now := time.Now()
	ent, state := e.cache.Get(path, now)
	if lsp != nil {
		lsp.Annotate("state", state.String())
	}

	src := srcHit
	switch state {
	case Fresh:
		e.countHit(ep)
		e.hitN.Add(1)
	default: // Stale or Miss: fill (coalesced with concurrent fillers).
		fr, leader := e.fill(ctx, path, ep, ent, state)
		switch {
		case fr.err != nil && ent != nil:
			// Origin faulty but a stale copy is at hand: serve it. The
			// retention window already bounded how stale it may be.
			src = srcStale
			e.hitN.Add(1)
			e.reg.Counter("pano_edge_stale_serves_total",
				"stale entries served because the origin was unreachable").Inc()
			if e.log != nil {
				e.log.Logger().Warn("edge_stale_serve",
					"path", path, "age_sec", ent.Age(now).Seconds(), "error", fr.err.Error())
			}
			lsp.Annotate("served", "stale")
		case fr.err != nil:
			e.reg.Counter("pano_edge_origin_errors_total",
				"requests failed: origin unreachable and nothing cached").Inc()
			lsp.SetError("origin_unreachable")
			e.requestDone(ep, http.StatusBadGateway)
			http.Error(w, "edge: origin unreachable: "+fr.err.Error(), http.StatusBadGateway)
			return
		case !leader:
			src = srcCoalesced
			ent = fr.entry
			e.hitN.Add(1)
			e.reg.CounterIn(&ep.coalesced, "pano_edge_coalesced_total",
				"requests coalesced onto another caller's origin fetch", obs.L("endpoint", ep.name)).Inc()
		case fr.revalidated:
			src = srcRevalidated
			ent = fr.entry
			e.hitN.Add(1)
			e.countHit(ep)
		default:
			src = srcMiss
			ent = fr.entry
			e.missN.Add(1)
			e.reg.CounterIn(&ep.misses, "pano_edge_misses_total",
				"requests that required a full origin fetch", obs.L("endpoint", ep.name)).Inc()
		}
	}
	e.updateHitRatio()
	if lsp != nil {
		lsp.Annotate("src", src.String())
	}
	e.serve(ep, w, r, ent, src, now)
	if ep == &e.tileEP && e.pf != nil {
		e.pf.observe(path)
	}
}

func (e *Edge) countHit(ep *endpointSeries) {
	e.reg.CounterIn(&ep.hits, "pano_edge_hits_total",
		"requests served from cache (fresh or revalidated)", obs.L("endpoint", ep.name)).Inc()
}

func (e *Edge) updateHitRatio() {
	h, m := e.hitN.Load(), e.missN.Load()
	if h+m == 0 {
		return
	}
	e.reg.GaugeIn(&e.hitRatio, "pano_edge_hit_ratio",
		"fraction of requests absorbed without a full origin fetch").
		Set(float64(h) / float64(h+m))
}

// countBytes adds body bytes to pano_edge_bytes_total under their source.
func (e *Edge) countBytes(src source, n int) {
	e.reg.CounterIn(&e.bytesBy[src], "pano_edge_bytes_total", "body bytes served by the edge, by source",
		obs.L("source", src.String())).Add(float64(n))
}

// requestDone records the per-request counter shared by every exit
// path.
func (e *Edge) requestDone(ep *endpointSeries, code int) {
	e.reg.Counter("pano_edge_requests_total", "edge requests by endpoint and status",
		obs.L("endpoint", ep.name), obs.L("code", codeLabel(code))).Inc()
}

// codeLabel renders a status code as a label value; the statuses the
// edge answers with day to day are constants.
func codeLabel(code int) string {
	switch code {
	case http.StatusOK:
		return "200"
	case http.StatusNotModified:
		return "304"
	case http.StatusNotFound:
		return "404"
	case http.StatusGone:
		return "410"
	case http.StatusBadGateway:
		return "502"
	}
	return strconv.Itoa(code)
}

// serve replays a cache entry to the client, honoring its own
// If-None-Match (a fresh entry revalidates downstream caches without
// any origin traffic at all).
func (e *Edge) serve(ep *endpointSeries, w http.ResponseWriter, r *http.Request, ent *Entry, src source, now time.Time) {
	h := w.Header()
	if ent.ContentType != "" {
		h.Set("Content-Type", ent.ContentType)
	}
	if ent.ETag != "" {
		h.Set("ETag", ent.ETag)
	}
	h["X-Cache"] = xCache[src]
	h.Set("Age", strconv.Itoa(int(ent.Age(now).Seconds())))
	if ent.Status == http.StatusOK && obs.ETagMatch(r.Header.Get("If-None-Match"), ent.ETag) {
		w.WriteHeader(http.StatusNotModified)
		e.requestDone(ep, http.StatusNotModified)
		return
	}
	h.Set("Content-Length", strconv.Itoa(len(ent.Body)))
	w.WriteHeader(ent.Status)
	n := 0
	if r.Method != http.MethodHead && len(ent.Body) > 0 {
		n, _ = w.Write(ent.Body)
	}
	e.countBytes(src, n)
	e.requestDone(ep, ent.Status)
}

// fillResult is what one coalesced origin fetch resolves to.
type fillResult struct {
	entry       *Entry
	revalidated bool
	err         error
}

// fill fetches path from the origin exactly once across all concurrent
// callers (singleflight). A stale entry's ETag rides along as
// If-None-Match so an unchanged object costs a 304, not a body.
func (e *Edge) fill(ctx context.Context, path string, ep *endpointSeries, stale *Entry, state State) (*fillResult, bool) {
	return e.flight.Do(path, func() *fillResult {
		fctx, sp := ctx, (*trace.Span)(nil)
		if trace.FromContext(ctx) != nil {
			fctx, sp = trace.StartSpan(ctx, "edge.fill",
				trace.A("path", path), trace.A("stale", state == Stale))
			defer sp.End()
		}
		etag := ""
		if stale != nil {
			etag = stale.ETag
		}
		e.reg.CounterIn(&ep.fetches, "pano_edge_origin_fetches_total",
			"origin round-trips issued by the edge (conditional and full), by endpoint",
			obs.L("endpoint", ep.name)).Inc()
		var t0 time.Time
		if e.log != nil {
			t0 = time.Now()
		}
		// Placement, failover, and hedging live in the fleet; the ring
		// decides which origin answers this path.
		res, err := e.fl.Fetch(fctx, path, etag)
		if err != nil {
			sp.SetError("origin")
			if state == Stale {
				e.reg.Counter("pano_edge_revalidations_total",
					"stale-entry revalidations against the origin by outcome",
					obs.L("result", "error")).Inc()
			}
			if stale == nil && fctx.Err() == nil {
				// Total-outage ladder, last rung: with nothing to serve
				// stale, negative-cache the failure for NegTTL so a dead
				// fleet answers from cache instead of absorbing a fetch
				// per request. A cancelled fill (the singleflight leader's
				// client went away mid-fetch) is not an origin-outage
				// signal, so it must not poison the path for NegTTL.
				e.cache.Put(&Entry{
					Key: path, Status: http.StatusBadGateway,
					Body:        []byte("edge: origin unreachable\n"),
					ContentType: "text/plain; charset=utf-8",
				}, time.Now(), e.cfg.NegTTL)
				e.reg.Counter("pano_edge_outage_negatives_total",
					"origin-unreachable answers negative-cached for NegTTL").Inc()
			}
			return &fillResult{err: err}
		}
		now := time.Now()
		if res.NotModified {
			// 304 fast path: the stale body is still current.
			e.cache.Refresh(path, now, e.cfg.TTL)
			e.reg.Counter("pano_edge_revalidations_total",
				"stale-entry revalidations against the origin by outcome",
				obs.L("result", "304")).Inc()
			sp.Annotate("revalidated", true)
			return &fillResult{entry: stale, revalidated: true}
		}
		if state == Stale {
			e.reg.Counter("pano_edge_revalidations_total",
				"stale-entry revalidations against the origin by outcome",
				obs.L("result", "refetch")).Inc()
		}
		ent := &Entry{
			Key: path, Status: res.Status, Body: res.Body,
			ETag: res.ETag, ContentType: res.ContentType,
		}
		ttl := e.cfg.TTL
		if res.Status != http.StatusOK {
			ttl = e.cfg.NegTTL // negative caching
		}
		if path == "/manifest.json" && res.Status == http.StatusOK {
			// Learn before inserting so the TTL decision can see a live
			// manifest: a live head cached for the full positive TTL would
			// freeze the edge for every client behind this cache. Clamp it
			// to half a chunk, the origin's own live refresh cadence.
			if m := e.learnManifest(res.Body); m != nil && m.Live {
				if lt := time.Duration(m.ChunkSec / 2 * float64(time.Second)); lt > 0 && lt < ttl {
					ttl = lt
				}
			}
		}
		evicted := e.cache.Put(ent, now, ttl)
		if evicted > 0 {
			e.evictCt.Add(float64(evicted))
		}
		e.countBytes(srcOrigin, len(res.Body))
		if sp != nil {
			sp.Annotate("status", res.Status)
			sp.Annotate("bytes", len(res.Body))
		}
		if e.log != nil {
			e.log.Logger().Debug("edge_fill",
				"path", path, "status", res.Status, "bytes", len(res.Body),
				"seconds", time.Since(t0).Seconds())
		}
		return &fillResult{entry: ent}
	})
}

// learnManifest decodes a manifest passing through the cache so the
// prefetcher knows the video's chunk/tile geometry (and, for a live
// feed, where the edge currently is). Returns the adopted manifest, or
// nil when the body didn't validate or was older than what is held
// (live refreshes may race through concurrent fills; chunk count and
// Seq never go backwards).
func (e *Edge) learnManifest(body []byte) *manifest.Video {
	m, err := manifest.Unmarshal(body)
	if err != nil || m.Validate() != nil {
		return nil
	}
	if old := e.man.Load(); old != nil && (m.NumChunks() < old.NumChunks() || m.Seq < old.Seq) {
		return nil
	}
	e.man.Store(m)
	e.reg.Gauge("pano_edge_manifest_chunks", "chunks in the learned origin manifest").
		Set(float64(m.NumChunks()))
	return m
}

// passthrough forwards one request verbatim and replays the origin's
// answer byte-for-byte — the cache-disabled mode whose wire behaviour
// is indistinguishable from talking to the origin directly.
func (e *Edge) passthrough(ep *endpointSeries, w http.ResponseWriter, r *http.Request) {
	// Ring placement holds even without a cache: the path's first
	// healthy replica serves it.
	req, err := http.NewRequestWithContext(r.Context(), r.Method, e.fl.Pick(r.URL.Path)+r.URL.RequestURI(), nil)
	if err != nil {
		http.Error(w, "edge: "+err.Error(), http.StatusBadGateway)
		return
	}
	for k, vs := range r.Header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := e.cfg.HTTP.Do(req)
	if err != nil {
		e.requestDone(ep, http.StatusBadGateway)
		http.Error(w, "edge: origin unreachable: "+err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	h := w.Header()
	for k, vs := range resp.Header {
		for _, v := range vs {
			h.Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	n, _ := io.Copy(w, resp.Body)
	e.countBytes(srcPassthrough, int(n))
	e.requestDone(ep, resp.StatusCode)
}
