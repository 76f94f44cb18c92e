package edge

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pano/internal/client"
	"pano/internal/codec"
	"pano/internal/manifest"
	"pano/internal/obs"
	"pano/internal/provider"
	"pano/internal/scene"
	"pano/internal/server"
	"pano/internal/viewport"
)

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

var (
	fixOnce sync.Once
	fixMan  *manifest.Video
	fixVid  *scene.Video
)

func fixture(t testing.TB) (*manifest.Video, *scene.Video) {
	t.Helper()
	fixOnce.Do(func() {
		v := scene.Generate(scene.Sports, 7, scene.Options{W: 240, H: 120, FPS: 10, DurationSec: 3})
		m, err := provider.Preprocess(v, nil, provider.DefaultConfig())
		if err != nil {
			panic(err)
		}
		fixMan, fixVid = m, v
	})
	return fixMan, fixVid
}

// countingOrigin wraps the origin handler counting requests by
// endpoint, with an optional per-request hook.
type countingOrigin struct {
	h         http.Handler
	tiles     atomic.Int64
	manifests atomic.Int64
	fail      atomic.Bool // when set, answer 500 without consulting h
	gate      chan struct{}
	arrived   chan struct{}
}

func (c *countingOrigin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/manifest.json":
		c.manifests.Add(1)
	case len(r.URL.Path) > 7 && r.URL.Path[:7] == "/video/":
		c.tiles.Add(1)
	}
	if c.arrived != nil {
		select {
		case c.arrived <- struct{}{}:
		default:
		}
	}
	if c.gate != nil {
		<-c.gate
	}
	if c.fail.Load() {
		http.Error(w, "origin down", http.StatusInternalServerError)
		return
	}
	c.h.ServeHTTP(w, r)
}

func newOrigin(t *testing.T) *countingOrigin {
	t.Helper()
	m, _ := fixture(t)
	s, err := server.New(m)
	if err != nil {
		t.Fatal(err)
	}
	return &countingOrigin{h: s.Handler()}
}

// fastPolicy keeps origin retries loopback-scaled.
func fastPolicy() client.FetchPolicy {
	return client.FetchPolicy{
		MaxAttempts:    2,
		BaseBackoff:    time.Millisecond,
		MaxBackoff:     2 * time.Millisecond,
		AttemptTimeout: 2 * time.Second,
	}
}

func newEdge(t *testing.T, origin string, mut func(*Config)) (*Edge, *httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg := Config{
		Origins:    []string{origin},
		CacheBytes: 32 << 20,
		TTL:        time.Minute,
		NegTTL:     time.Minute,
		StaleFor:   time.Minute,
		Fetch:      fastPolicy(),
		Obs:        reg,
	}
	if mut != nil {
		mut(&cfg)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(e.Handler())
	t.Cleanup(func() { ts.Close(); e.Close() })
	return e, ts, reg
}

func get(t *testing.T, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

// TestEdgeCoalescing: N concurrent misses for the same tile produce
// exactly one origin fetch; everyone gets identical bytes. Run under
// -race to exercise the flight group.
func TestEdgeCoalescing(t *testing.T) {
	origin := newOrigin(t)
	origin.gate = make(chan struct{})
	origin.arrived = make(chan struct{}, 1)
	ots := httptest.NewServer(origin)
	defer ots.Close()
	_, ets, reg := newEdge(t, ots.URL, nil)

	const n = 32
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, b, _ := get(t, ets.URL+"/video/0/0/1.bin")
			bodies[i] = b
		}(i)
	}
	<-origin.arrived // leader reached the origin
	time.Sleep(50 * time.Millisecond)
	close(origin.gate) // release it; waiters coalesce onto its flight
	wg.Wait()

	if got := origin.tiles.Load(); got != 1 {
		t.Fatalf("origin saw %d tile fetches for %d concurrent clients, want exactly 1", got, n)
	}
	for i := 1; i < n; i++ {
		if string(bodies[i]) != string(bodies[0]) {
			t.Fatalf("client %d got different bytes", i)
		}
	}
	co := reg.CounterValue("pano_edge_coalesced_total", obs.L("endpoint", "tile"))
	hits := reg.CounterValue("pano_edge_hits_total", obs.L("endpoint", "tile"))
	if co+hits != n-1 {
		t.Errorf("coalesced(%v) + hits(%v) = %v, want %d", co, hits, co+hits, n-1)
	}
}

// TestEdgeRevalidation304: a stale entry revalidates with a conditional
// fetch; the origin answers 304 and the cached body is served again.
func TestEdgeRevalidation304(t *testing.T) {
	origin := newOrigin(t)
	ots := httptest.NewServer(origin)
	defer ots.Close()
	_, ets, reg := newEdge(t, ots.URL, func(c *Config) { c.TTL = 50 * time.Millisecond })

	_, b1, h1 := get(t, ets.URL+"/video/0/0/0.bin")
	if h1.Get("X-Cache") != "miss" {
		t.Fatalf("first fetch X-Cache %q, want miss", h1.Get("X-Cache"))
	}
	time.Sleep(80 * time.Millisecond) // expire

	_, b2, h2 := get(t, ets.URL+"/video/0/0/0.bin")
	if h2.Get("X-Cache") != "revalidated" {
		t.Fatalf("stale fetch X-Cache %q, want revalidated", h2.Get("X-Cache"))
	}
	if string(b1) != string(b2) {
		t.Fatal("revalidated body differs")
	}
	if got := reg.CounterValue("pano_edge_revalidations_total", obs.L("result", "304")); got != 1 {
		t.Errorf("revalidations{304} = %v, want 1", got)
	}
	if got := origin.tiles.Load(); got != 2 {
		t.Errorf("origin saw %d tile requests, want 2 (one full, one conditional)", got)
	}
	// Freshly revalidated: the next fetch is a pure hit.
	_, _, h3 := get(t, ets.URL+"/video/0/0/0.bin")
	if h3.Get("X-Cache") != "hit" {
		t.Errorf("post-revalidation X-Cache %q, want hit", h3.Get("X-Cache"))
	}
}

// TestEdgeServeStaleOnOriginFault: when the origin turns into a 500
// machine, stale entries keep serving within the retention window and
// requests only fail after it closes.
func TestEdgeServeStaleOnOriginFault(t *testing.T) {
	origin := newOrigin(t)
	ots := httptest.NewServer(origin)
	defer ots.Close()
	_, ets, reg := newEdge(t, ots.URL, func(c *Config) {
		c.TTL = 50 * time.Millisecond
		c.StaleFor = 10 * time.Minute
	})

	_, b1, _ := get(t, ets.URL+"/video/0/1/0.bin")
	origin.fail.Store(true)
	time.Sleep(80 * time.Millisecond) // entry is now stale

	code, b2, h := get(t, ets.URL+"/video/0/1/0.bin")
	if code != http.StatusOK || h.Get("X-Cache") != "stale" {
		t.Fatalf("faulty origin: code %d X-Cache %q, want 200/stale", code, h.Get("X-Cache"))
	}
	if string(b1) != string(b2) {
		t.Fatal("stale body differs from original")
	}
	if got := reg.CounterValue("pano_edge_stale_serves_total"); got != 1 {
		t.Errorf("stale_serves = %v, want 1", got)
	}
	// A never-cached object has no stale fallback: bad gateway.
	code, _, _ = get(t, ets.URL+"/video/0/2/0.bin")
	if code != http.StatusBadGateway {
		t.Errorf("uncached object with faulty origin: code %d, want 502", code)
	}
}

// TestEdgeNegativeCaching: a 404 is cached and replayed without
// touching the origin again within NegTTL.
func TestEdgeNegativeCaching(t *testing.T) {
	origin := newOrigin(t)
	ots := httptest.NewServer(origin)
	defer ots.Close()
	_, ets, _ := newEdge(t, ots.URL, nil)

	code1, _, _ := get(t, ets.URL+"/video/999/0/0.bin")
	code2, _, h2 := get(t, ets.URL+"/video/999/0/0.bin")
	if code1 != http.StatusNotFound || code2 != http.StatusNotFound {
		t.Fatalf("codes %d/%d, want 404/404", code1, code2)
	}
	if h2.Get("X-Cache") != "hit" {
		t.Errorf("second 404 X-Cache %q, want hit", h2.Get("X-Cache"))
	}
	if got := origin.tiles.Load(); got != 1 {
		t.Errorf("origin saw %d requests for a cached negative, want 1", got)
	}
}

// TestEdgeDownstreamConditional: the edge honors a client's
// If-None-Match against a fresh entry with a 304 and zero origin
// traffic.
func TestEdgeDownstreamConditional(t *testing.T) {
	origin := newOrigin(t)
	ots := httptest.NewServer(origin)
	defer ots.Close()
	_, ets, _ := newEdge(t, ots.URL, nil)

	_, _, h := get(t, ets.URL+"/video/0/0/0.bin")
	etag := h.Get("ETag")
	if etag == "" {
		t.Fatal("edge response lost the origin ETag")
	}
	before := origin.tiles.Load()
	req, _ := http.NewRequest(http.MethodGet, ets.URL+"/video/0/0/0.bin", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("status %d, want 304", resp.StatusCode)
	}
	if origin.tiles.Load() != before {
		t.Error("downstream revalidation hit the origin")
	}
}

// TestEdgePassthroughByteIdentical: with the cache disabled the edge is
// a transparent proxy — status, body, and validator headers match the
// origin byte for byte, for positive, negative, and conditional
// answers.
func TestEdgePassthroughByteIdentical(t *testing.T) {
	origin := newOrigin(t)
	ots := httptest.NewServer(origin)
	defer ots.Close()
	_, ets, _ := newEdge(t, ots.URL, func(c *Config) { c.CacheBytes = 0 })

	paths := []string{"/manifest.json", "/manifest.mpd", "/video/0/0/0.bin", "/video/0/0/1.bin", "/video/999/0/0.bin"}
	for _, p := range paths {
		dCode, dBody, dH := get(t, ots.URL+p)
		eCode, eBody, eH := get(t, ets.URL+p)
		if dCode != eCode {
			t.Errorf("%s: status %d via edge, %d direct", p, eCode, dCode)
		}
		if string(dBody) != string(eBody) {
			t.Errorf("%s: body differs via edge (%d vs %d bytes)", p, len(eBody), len(dBody))
		}
		for _, hk := range []string{"Content-Type", "ETag", "Cache-Control", "Content-Length"} {
			if dH.Get(hk) != eH.Get(hk) {
				t.Errorf("%s: header %s = %q via edge, %q direct", p, hk, eH.Get(hk), dH.Get(hk))
			}
		}
	}
	// Conditional requests pass through to the origin's 304 logic.
	_, _, h := get(t, ots.URL+"/video/0/0/0.bin")
	req, _ := http.NewRequest(http.MethodGet, ets.URL+"/video/0/0/0.bin", nil)
	req.Header.Set("If-None-Match", h.Get("ETag"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Errorf("pass-through conditional: status %d, want 304", resp.StatusCode)
	}
}

// TestEdgeStreamSessions: a real streaming client works unmodified
// against the edge, and a second session is served mostly from cache.
func TestEdgeStreamSessions(t *testing.T) {
	m, v := fixture(t)
	origin := newOrigin(t)
	ots := httptest.NewServer(origin)
	defer ots.Close()
	_, ets, reg := newEdge(t, ots.URL, nil)

	tr := viewport.Synthesize(v, 11, viewport.DefaultSynthesizeOpts())
	rate := 0.35 * m.ChunkBits(0, 0) / m.ChunkSec
	for i := 0; i < 2; i++ {
		res, err := client.New(ets.URL).Stream(context.Background(), tr, client.StreamConfig{
			MaxRateBps: rate,
			Fetch:      fastPolicy(),
		})
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if len(res.Chunks) != m.NumChunks() {
			t.Fatalf("session %d streamed %d chunks, want %d", i, len(res.Chunks), m.NumChunks())
		}
		if res.SkippedTiles > 0 {
			t.Errorf("session %d skipped %d tiles", i, res.SkippedTiles)
		}
	}
	originTiles := origin.tiles.Load()
	hits := reg.CounterValue("pano_edge_hits_total", obs.L("endpoint", "tile"))
	if hits == 0 {
		t.Error("second identical session produced no cache hits")
	}
	total := int64(0)
	for _, ch := range []string{"hits", "misses", "coalesced"} {
		total += int64(reg.CounterValue("pano_edge_"+ch+"_total", obs.L("endpoint", "tile")))
	}
	if originTiles >= total {
		t.Errorf("origin tile fetches (%d) not reduced vs edge tile requests (%d)", originTiles, total)
	}
	if ratio := reg.GaugeValue("pano_edge_hit_ratio"); ratio <= 0 {
		t.Errorf("hit ratio gauge %v, want > 0", ratio)
	}
}

// TestEdgeConcurrentSessionsRace: several concurrent sessions through
// one edge, for the race detector.
func TestEdgeConcurrentSessionsRace(t *testing.T) {
	m, v := fixture(t)
	origin := newOrigin(t)
	ots := httptest.NewServer(origin)
	defer ots.Close()
	_, ets, _ := newEdge(t, ots.URL, func(c *Config) {
		c.PrefetchBudget = 64
		c.Peers = []*viewport.Trace{
			viewport.Synthesize(v, 21, viewport.DefaultSynthesizeOpts()),
			viewport.Synthesize(v, 22, viewport.DefaultSynthesizeOpts()),
			viewport.Synthesize(v, 23, viewport.DefaultSynthesizeOpts()),
		}
	})

	rate := 0.35 * m.ChunkBits(0, 0) / m.ChunkSec
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr := viewport.Synthesize(v, uint64(30+i%2), viewport.DefaultSynthesizeOpts())
			_, errs[i] = client.New(ets.URL).Stream(context.Background(), tr, client.StreamConfig{
				MaxRateBps: rate,
				MaxChunks:  2,
				Fetch:      fastPolicy(),
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("session %d: %v", i, err)
		}
	}
}

// TestEdgeRejectsBadConfig: Origins is required; unknown paths 404;
// non-GET 405.
func TestEdgeRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing Origins accepted")
	}
	origin := newOrigin(t)
	ots := httptest.NewServer(origin)
	defer ots.Close()
	_, ets, _ := newEdge(t, ots.URL, nil)

	code, _, _ := get(t, ets.URL+"/nope")
	if code != http.StatusNotFound {
		t.Errorf("unknown path: %d, want 404", code)
	}
	resp, err := http.Post(ets.URL+"/manifest.json", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST: %d, want 405", resp.StatusCode)
	}
}

// hitEdge returns an edge over an in-memory origin with every tile of
// the fixture already cached, and the tile paths.
func hitEdge(tb testing.TB, reg *obs.Registry) (http.Handler, []string) {
	tb.Helper()
	m, _ := fixture(tb)
	s, err := server.New(m)
	if err != nil {
		tb.Fatal(err)
	}
	ots := httptest.NewServer(s.Handler())
	tb.Cleanup(ots.Close)
	e, err := New(Config{Origins: []string{ots.URL}, CacheBytes: 32 << 20, TTL: time.Hour, Obs: reg})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(e.Close)
	h := e.Handler()
	var paths []string
	for ti := range m.Chunks[0].Tiles {
		for l := 0; l < codec.NumLevels; l++ {
			p := server.TilePath(0, ti, codec.Level(l))
			paths = append(paths, p)
			if rec := serveInto(h, p); rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "miss" {
				tb.Fatalf("fill %s: %d, X-Cache %q", p, rec.Code, rec.Header().Get("X-Cache"))
			}
		}
	}
	return h, paths
}

func serveInto(h http.Handler, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// TestEdgeHitAllocations pins an edge cache hit into a recorder (request
// and recorder included, as the benchmark's edge.handler_hit_allocs
// counts it; 32 before). A registry must not cost a hit anything: its
// series are resolved, their labels built, by the first request.
func TestEdgeHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for name, reg := range map[string]*obs.Registry{"nil registry": nil, "registry attached": obs.NewRegistry()} {
		h, paths := hitEdge(t, reg)
		i := 0
		n := testing.AllocsPerRun(300, func() {
			if rec := serveInto(h, paths[i%len(paths)]); rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" {
				t.Fatalf("%d, X-Cache %q", rec.Code, rec.Header().Get("X-Cache"))
			}
			i++
		})
		t.Logf("%s: %v allocs/op", name, n)
		if n > 30 {
			t.Errorf("%s: edge hit %v allocs/op, want <= 30", name, n)
		}
	}
}

// BenchmarkEdgeHit is a cache hit over loopback HTTP, GOMAXPROCS clients
// in parallel, with and without a metrics registry attached to the
// edge.
func BenchmarkEdgeHit(b *testing.B) {
	for _, c := range []struct {
		name string
		reg  *obs.Registry
	}{{"nil_registry", nil}, {"registry", obs.NewRegistry()}} {
		b.Run(c.name, func(b *testing.B) {
			h, paths := hitEdge(b, c.reg)
			ets := httptest.NewServer(h)
			defer ets.Close()
			url := ets.URL + paths[0]
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					resp, err := http.Get(url)
					if err != nil {
						b.Fatal(err)
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			})
		})
	}
}
