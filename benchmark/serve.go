package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"time"

	"pano/internal/client"
	"pano/internal/codec"
	"pano/internal/edge"
	"pano/internal/fleet"
	"pano/internal/manifest"
	"pano/internal/obs"
	"pano/internal/server"
	"pano/internal/store"
	"pano/internal/trace"
)

// Edge cache budgets of the two serve workloads. The cold budget is
// below one sweep of the tile list (≈2.2 MB), so a cyclic sweep never
// finds anything it inserted: every request crosses every hop.
const (
	hotCacheBytes  = 64 << 20
	coldCacheBytes = 256 << 10
)

// serve is both delivery workloads: C closed-loop clients sweep the
// bench video's tile objects through edge → fleet of two store-backed
// origins. hot: every measured GET is an edge cache hit, so edge
// handler, LRU and net/http do all the work (smallest-object regime,
// per-request cost dominates). cold: every GET is an edge miss →
// singleflight → fleet.Fetch → origin handler → store read → cache
// insert + evict, reading the store provider_encode writes.
type serve struct {
	hot bool

	e       *env
	bv      *benchVideo
	dir     string
	stores  []*store.Store
	back    []*store.Backend
	origins []*httptest.Server
	srvs    []*server.Server
	edge    *edge.Edge
	front   *httptest.Server
	reg     *obs.Registry // the edge's (and its fleet's) registry
	storeRg *obs.Registry // shared by the origin stores
	clients []*client.Client
	objs    []object // the tile list, in this seed's order
	sweep   int64    // body bytes of one sweep

	last map[string]float64 // counter deltas and body bytes of the most recent pass
}

// object is one tile as the store's backend describes it: what every
// GET of its path must return.
type object struct {
	path   string
	k, ti  int
	level  codec.Level
	size   int
	etag   string
	sum    [sha256.Size]byte
	digest string
}

func (w *serve) setup(e *env) (err error) {
	w.e = e
	w.bv = newBenchVideo(e.size)
	if w.dir, err = os.MkdirTemp(e.tmp, "serve-"); err != nil {
		return err
	}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	if _, _, err = w.bv.publish(w.dir, nil); err != nil {
		return err
	}
	w.storeRg = obs.NewRegistry()
	var urls []string
	for i := 0; i < 2; i++ {
		st, err := store.Open(w.dir, store.WithObs(w.storeRg))
		if err != nil {
			return err
		}
		b, err := store.NewBackend(st)
		if err != nil {
			return err
		}
		srv, err := server.NewBackend(b)
		if err != nil {
			return err
		}
		ts := httptest.NewServer(srv.Handler())
		w.stores, w.back, w.srvs, w.origins = append(w.stores, st), append(w.back, b), append(w.srvs, srv), append(w.origins, ts)
		urls = append(urls, ts.URL)
	}
	if err = w.listObjects(); err != nil {
		return err
	}
	cache := int64(coldCacheBytes)
	if w.hot {
		cache = hotCacheBytes
	}
	w.reg = obs.NewRegistry()
	if w.edge, err = w.newEdge(urls, cache, w.reg); err != nil {
		return err
	}
	w.front = httptest.NewServer(w.edge.Handler())
	for c := 0; c < e.clients; c++ {
		w.clients = append(w.clients, client.New(w.front.URL))
	}
	if w.hot {
		// Let the cache fill before timing: one sweep, every body checked.
		pr, err := w.sweeps(nil, 1)
		if err != nil {
			return err
		}
		if pr.failed > 0 {
			return fmt.Errorf("cache fill: %d of %d GETs failed verification", pr.failed, pr.ops)
		}
	}
	return nil
}

func (w *serve) newEdge(origins []string, cacheBytes int64, reg *obs.Registry) (*edge.Edge, error) {
	return edge.New(edge.Config{
		Origins:    origins,
		CacheBytes: cacheBytes,
		TTL:        5 * time.Minute,
		Obs:        reg,
	})
}

// listObjects reads every tile's size, ETag, digest and bytes from the
// first origin's backend and orders the list by the seed.
func (w *serve) listObjects() error {
	b := w.back[0]
	m, _, _, err := b.Manifest()
	if err != nil {
		return err
	}
	cat, err := w.stores[0].ReadCatalog()
	if err != nil {
		return err
	}
	w.objs, w.sweep = nil, 0
	for k := range m.Chunks {
		for ti := range m.Chunks[k].Tiles {
			for l := 0; l < codec.NumLevels; l++ {
				lv := codec.Level(l)
				st, err := b.TileStat(k, ti, lv)
				if err != nil {
					return err
				}
				data, err := b.TileData(k, ti, lv)
				if err != nil {
					return err
				}
				path := server.TilePath(k, ti, lv)
				w.objs = append(w.objs, object{
					path: path, k: k, ti: ti, level: lv, size: st.Size, etag: st.ETag,
					sum: sha256.Sum256(data), digest: cat.Tiles[path].Digest,
				})
				w.sweep += int64(len(data))
			}
		}
	}
	rand.New(rand.NewSource(int64(w.e.seed))).Shuffle(len(w.objs), func(i, j int) {
		w.objs[i], w.objs[j] = w.objs[j], w.objs[i]
	})
	if !w.hot && w.sweep <= coldCacheBytes {
		return fmt.Errorf("one sweep is %d bytes, not above the cold cache budget %d", w.sweep, coldCacheBytes)
	}
	return nil
}

func (w *serve) close() {
	if w.front != nil {
		w.front.Close()
	}
	if w.edge != nil {
		w.edge.Close()
	}
	for _, ts := range w.origins {
		ts.Close()
	}
	for _, c := range w.clients {
		c.HTTP.CloseIdleConnections()
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
	*w = serve{hot: w.hot}
}

func (w *serve) pass(tr *trace.Tracer) (passResult, error) {
	n := w.e.size.coldSweeps
	if w.hot {
		n = w.e.size.hotSweeps
	}
	before := w.counters()
	pr, err := w.sweeps(tr, n)
	if err != nil {
		return pr, err
	}
	after := w.counters()
	w.last = map[string]float64{"body_bytes": float64(n) * float64(w.sweep)}
	for k, v := range after {
		w.last[k] = v - before[k]
	}
	gets := float64(pr.ops)
	// The workload is only what its name says if the cache behaved: a
	// hot pass with a miss, or a cold pass with a hit, fails the run.
	if w.hot && (w.last["hits"] != gets || w.last["misses"] != 0) {
		return pr, fmt.Errorf("hot pass: %v hits and %v misses on %v GETs", w.last["hits"], w.last["misses"], gets)
	}
	if !w.hot && (w.last["hits"] != 0 || w.last["misses"] != gets) {
		return pr, fmt.Errorf("cold pass: %v hits and %v misses on %v GETs", w.last["hits"], w.last["misses"], gets)
	}
	pr.counts = map[string]float64{
		"hits": w.last["hits"], "misses": w.last["misses"],
		"origin_fetches": w.last["origin_fetches"], "coalesced": w.last["coalesced"],
	}
	return pr, nil
}

// sweeps has every client walk its own stride of the object list n
// times, one GET after another, each waiting for the reply.
func (w *serve) sweeps(tr *trace.Tracer, n int) (passResult, error) {
	type out struct {
		lat    []time.Duration
		failed int
		err    error
	}
	outs := make([]out, len(w.clients))
	var wg sync.WaitGroup
	for c := range w.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := &outs[c]
			o.lat = make([]time.Duration, 0, n*(len(w.objs)/len(w.clients)+1))
			for s := 0; s < n; s++ {
				for i := c; i < len(w.objs); i += len(w.clients) {
					ob := &w.objs[i]
					_, sp := tr.Start(context.Background(), "client.fetch_raw")
					t0 := time.Now()
					res, err := w.clients[c].FetchRaw(context.Background(), ob.path, "", client.FetchPolicy{}, nil)
					o.lat = append(o.lat, time.Since(t0))
					sp.End()
					if err != nil {
						o.err = err
						return
					}
					// Length and validators on every GET, the bytes
					// themselves on the first sweep of the pass.
					if res.Status != http.StatusOK || len(res.Body) != ob.size || res.ETag != ob.etag ||
						(s == 0 && sha256.Sum256(res.Body) != ob.sum) {
						o.failed++
					}
				}
			}
		}(c)
	}
	wg.Wait()
	var pr passResult
	for _, o := range outs {
		if o.err != nil {
			return pr, o.err
		}
		pr.lat = append(pr.lat, o.lat...)
		pr.failed += o.failed
	}
	pr.ops = len(pr.lat)
	return pr, nil
}

// counters reads the attached registries.
func (w *serve) counters() map[string]float64 {
	tile := obs.L("endpoint", "tile")
	c := map[string]float64{
		"hits":           w.reg.CounterValue("pano_edge_hits_total", tile),
		"misses":         w.reg.CounterValue("pano_edge_misses_total", tile),
		"coalesced":      w.reg.CounterValue("pano_edge_coalesced_total", tile),
		"origin_fetches": w.reg.CounterValue("pano_edge_origin_fetches_total", tile),
		"evictions":      w.reg.CounterValue("pano_edge_evictions_total"),
		"failovers":      w.reg.CounterValue("pano_fleet_failovers_total"),
		"hedges":         w.reg.CounterValue("pano_client_hedge_issued_total"),
		"store_gets":     w.storeRg.CounterValue("pano_store_gets_total"),
	}
	for i := range w.origins {
		c["origin"+strconv.Itoa(i)] = w.reg.CounterValue("pano_fleet_requests_total", obs.L("origin", strconv.Itoa(i)))
	}
	return c
}

// verify compares the two origins: same manifest bytes and ETag, so the
// fleet may send any request to either.
func (w *serve) verify() error {
	_, b0, e0, err := w.back[0].Manifest()
	if err != nil {
		return err
	}
	_, b1, e1, err := w.back[1].Manifest()
	if err != nil {
		return err
	}
	if e0 != e1 || !bytes.Equal(b0, b1) {
		return fmt.Errorf("the two origins serve different manifests (%s, %s)", e0, e1)
	}
	return nil
}

// quality fetches the manifest the way a player would, through the
// edge, and runs the reference viewing on it.
func (w *serve) quality() (metrics, error) {
	res, err := w.clients[0].FetchRaw(context.Background(), "/manifest.json", "", client.FetchPolicy{}, nil)
	if err != nil {
		return nil, err
	}
	if res.Status != http.StatusOK {
		return nil, fmt.Errorf("manifest: HTTP %d", res.Status)
	}
	m, err := manifest.Decode(bytes.NewReader(res.Body))
	if err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return referenceViewing(w.e, w.bv, m, float64(len(res.Body))/1024)
}

func (w *serve) layers(p *prober) error {
	g := p.got
	n := p.calls
	obj := func(i int) *object { return &w.objs[i%len(w.objs)] }
	var firstErr error
	fail := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	bg := context.Background()

	// Each hop alone on the same object list, innermost first.
	g["store.get_us"] = p.timeUS("store.get", n, func(_ context.Context, i int) {
		_, err := w.stores[0].Get(obj(i).digest)
		fail(err)
	})
	g["store.backend_tile_us"] = p.timeUS("store.backend_tile", n, func(_ context.Context, i int) {
		o := obj(i)
		_, err := w.back[0].TileData(o.k, o.ti, o.level)
		fail(err)
	})
	serveInto := func(h http.Handler, path string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			fail(fmt.Errorf("%s: handler answered %d", path, rec.Code))
		}
	}
	origin := w.srvs[0].Handler()
	g["server.handler_us"] = p.timeUS("server.handler", n, func(_ context.Context, i int) { serveInto(origin, obj(i).path) })
	g["server.handler_allocs"], _ = p.allocs(n, func(i int) { serveInto(origin, obj(i).path) })
	g["server.self_us"] = g["server.handler_us"] - g["store.backend_tile_us"]

	direct := client.New(w.origins[0].URL)
	defer direct.HTTP.CloseIdleConnections()
	g["http.origin_direct_us"] = p.timeUS("http.origin_direct", n, func(_ context.Context, i int) {
		_, err := direct.FetchRaw(bg, obj(i).path, "", client.FetchPolicy{}, nil)
		fail(err)
	})
	g["http.loopback_us"] = g["http.origin_direct_us"] - g["server.handler_us"]

	var urls []string
	for _, ts := range w.origins {
		urls = append(urls, ts.URL)
	}
	fl, err := fleet.New(fleet.Config{Origins: urls, Seed: w.e.seed})
	if err != nil {
		return err
	}
	defer fl.Close()
	g["fleet.pick_ns"] = p.perCallNS("fleet.pick", 50*n, func(i int) { fl.Pick(obj(i).path) })
	g["fleet.fetch_us"] = p.timeUS("fleet.fetch", n, func(_ context.Context, i int) {
		_, err := fl.Fetch(bg, obj(i).path, "")
		fail(err)
	})
	g["fleet.fetch_allocs"], _ = p.allocs(n, func(i int) { fl.Fetch(bg, obj(i).path, "") })
	g["fleet.self_us"] = g["fleet.fetch_us"] - g["http.origin_direct_us"]

	// The cache alone: hits on a filled cache, then inserts into a full
	// one, each evicting.
	now := time.Now()
	body := make([]byte, 2048)
	cache := edge.NewCache(int64(256*(len(body)+256)), time.Minute)
	for i := 0; i < 256; i++ {
		cache.Put(&edge.Entry{Key: strconv.Itoa(i), Status: http.StatusOK, Body: body}, now, time.Hour)
	}
	g["edge.cache_get_ns"] = p.perCallNS("edge.cache_get", 100*n, func(i int) { cache.Get(strconv.Itoa(i&255), now) })
	g["edge.cache_put_ns"] = p.perCallNS("edge.cache_put", 100*n, func(i int) {
		cache.Put(&edge.Entry{Key: strconv.Itoa(256 + i), Status: http.StatusOK, Body: body}, now, time.Hour)
	})

	// The edge handler without a socket: all hits, then all misses.
	hitEdge, err := w.newEdge(urls, hotCacheBytes, nil)
	if err != nil {
		return err
	}
	defer hitEdge.Close()
	hit := hitEdge.Handler()
	for i := range w.objs {
		serveInto(hit, w.objs[i].path)
	}
	g["edge.handler_hit_us"] = p.timeUS("edge.handler_hit", n, func(_ context.Context, i int) { serveInto(hit, obj(i).path) })
	g["edge.handler_hit_allocs"], _ = p.allocs(n, func(i int) { serveInto(hit, obj(i).path) })
	missEdge, err := w.newEdge(urls, coldCacheBytes, nil)
	if err != nil {
		return err
	}
	defer missEdge.Close()
	miss := missEdge.Handler()
	g["edge.handler_miss_us"] = p.timeUS("edge.handler_miss", n, func(_ context.Context, i int) { serveInto(miss, obj(i).path) })
	g["edge.self_miss_us"] = g["edge.handler_miss_us"] - g["fleet.fetch_us"]
	if firstErr != nil {
		return firstErr
	}

	// One more pass for the tail and the per-pass counts.
	t0 := time.Now()
	pr, err := w.pass(nil)
	if err != nil {
		return err
	}
	wall := time.Since(t0).Seconds()
	g["client.fetch_raw_us_p99"] = float64(percentile(pr.lat, 0.99).Nanoseconds()) / 1e3
	g["client.goodput_mb_per_s"] = w.last["body_bytes"] / 1e6 / wall
	g["edge.hit_ratio"] = w.last["hits"] / float64(pr.ops)
	g["edge.origin_fetches"] = w.last["origin_fetches"]
	g["edge.evictions"] = w.last["evictions"]
	g["edge.coalesced"] = w.last["coalesced"]
	g["fleet.failovers"] = w.last["failovers"]
	g["fleet.hedges"] = w.last["hedges"]
	g["store.gets"] = w.last["store_gets"]
	var sum, most float64
	for i := range w.origins {
		r := w.last["origin"+strconv.Itoa(i)]
		sum += r
		most = max(most, r)
	}
	if sum > 0 {
		g["fleet.origin_skew"] = most / (sum / float64(len(w.origins)))
	}
	var buf bytes.Buffer
	g["obs.expose_us"] = p.timeUS("obs.expose", max(n/10, 1), func(context.Context, int) {
		buf.Reset()
		fail(w.reg.WritePrometheus(&buf))
	})
	return firstErr
}
