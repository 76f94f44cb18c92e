package testbed

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pano/internal/client"
	"pano/internal/edge"
	"pano/internal/fleet"
	"pano/internal/manifest"
	"pano/internal/obs"
	"pano/internal/provider"
	"pano/internal/scene"
	"pano/internal/server"
)

var (
	manOnce sync.Once
	man     *manifest.Video
)

func testManifest(t *testing.T) *manifest.Video {
	t.Helper()
	manOnce.Do(func() {
		v := scene.Generate(scene.Sports, 7, scene.Options{W: 240, H: 120, FPS: 10, DurationSec: 1})
		m, err := provider.Preprocess(v, nil, provider.DefaultConfig())
		if err != nil {
			panic(err)
		}
		man = m
	})
	return man
}

// once is a single-attempt policy: the tests want the first answer, not
// the ladder's.
var once = client.FetchPolicy{MaxAttempts: 1}

var tile = server.TilePath(0, 0, 0)

// eventually retries ok until it holds or two seconds pass.
func eventually(t *testing.T, what string, ok func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !ok(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: still not true after 2s", what)
		}
	}
}

// listening reports whether something accepts connections at rawURL.
func listening(rawURL string) bool {
	u, err := url.Parse(rawURL)
	if err != nil {
		return false
	}
	c, err := net.DialTimeout("tcp", u.Host, time.Second)
	if err != nil {
		return false
	}
	c.Close()
	return true
}

func TestKilledOriginResetsAndRevivesUnchanged(t *testing.T) {
	tb := New()
	defer tb.Close()
	o, err := tb.AddOrigin(OriginConfig{Manifest: testManifest(t), Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	before, err := tb.Client(o.URL).FetchRaw(ctx, tile, "", once, nil)
	if err != nil || before.Status != http.StatusOK || before.ETag == "" {
		t.Fatalf("healthy origin: %+v, %v", before.Status, err)
	}

	o.Kill()
	_, err = tb.Client(o.URL).FetchRaw(ctx, tile, "", once, nil)
	if got := client.ErrorClass(err); got != "conn_reset" {
		t.Errorf("killed origin: error class %q (%v), want conn_reset", got, err)
	}
	// The switch is outermost: the ops surface dies with the video.
	for _, path := range []string{"/metrics", "/healthz"} {
		if resp, err := http.Get(o.URL + path); err == nil {
			resp.Body.Close()
			t.Errorf("killed origin answered %s with %d", path, resp.StatusCode)
		}
	}

	o.Revive()
	after, err := tb.Client(o.URL).FetchRaw(ctx, tile, "", once, nil)
	if err != nil || after.Status != http.StatusOK {
		t.Fatalf("revived origin: %d, %v", after.Status, err)
	}
	if after.ETag != before.ETag || string(after.Body) != string(before.Body) {
		t.Errorf("revived origin serves a different object: ETag %s, was %s", after.ETag, before.ETag)
	}
}

func TestTileCounterAndTTFBSeeVideoRequestsOnly(t *testing.T) {
	tb := New()
	defer tb.Close()
	o, err := tb.AddOrigin(OriginConfig{Manifest: testManifest(t), Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	c := tb.Client(o.URL)
	for _, path := range []string{"/manifest.json", "/healthz", "/metrics", tile, server.TilePath(0, 1, 2)} {
		if res, err := c.FetchRaw(context.Background(), path, "", once, nil); err != nil || res.Status != http.StatusOK {
			t.Fatalf("%s: %d, %v", path, res.Status, err)
		}
	}
	if got := o.TileRequests(); got != 2 {
		t.Errorf("TileRequests = %d after 2 tile and 3 other requests", got)
	}
	if got := tb.TileTTFB().N(); got != 2 {
		t.Errorf("TileTTFB recorded %d requests, want the 2 tile ones", got)
	}
	// A dead origin serves nothing, so it counts nothing; the client's
	// failed attempt is still timed.
	o.Kill()
	c.FetchRaw(context.Background(), tile, "", once, nil)
	if o.TileRequests() != 2 || tb.TileTTFB().N() != 3 {
		t.Errorf("after a request to the killed origin: counter %d (want 2), TTFB samples %d (want 3)",
			o.TileRequests(), tb.TileTTFB().N())
	}
}

func TestStoreOriginWithoutCatalogFailsAtTheTimeout(t *testing.T) {
	tb := New()
	defer tb.Close()
	tb.catalogWait = 50 * time.Millisecond
	dir := t.TempDir()
	t0 := time.Now()
	_, err := tb.AddOrigin(OriginConfig{StoreDir: dir})
	took := time.Since(t0)
	if err == nil || !strings.Contains(err.Error(), "no catalog in "+dir) {
		t.Fatalf("err = %v, want a no-catalog error naming the directory", err)
	}
	if took < tb.catalogWait || took > time.Second {
		t.Errorf("gave up after %v, want about %v", took, tb.catalogWait)
	}
	if len(tb.Origins) != 0 {
		t.Errorf("failed origin was appended: %d origins", len(tb.Origins))
	}
}

func TestWaitBreakerFollowsKillAndRevive(t *testing.T) {
	tb := New()
	defer tb.Close()
	for i := 0; i < 2; i++ {
		if _, err := tb.AddOrigin(OriginConfig{Manifest: testManifest(t)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := tb.AddEdge(edge.Config{
			ProbeInterval: 5 * time.Millisecond,
			Breaker:       fleet.BreakerConfig{FailureThreshold: 2, OpenFor: 20 * time.Millisecond},
			CacheBytes:    1 << 20,
			Fetch:         LoopbackPolicy(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if tb.Edges[0].Fleet() == nil {
		t.Fatal("two origins must put the edge in fleet mode")
	}
	if _, err := tb.WaitBreaker(0, fleet.Closed, time.Second); err != nil {
		t.Fatalf("healthy fleet: %v", err)
	}
	if _, err := tb.WaitBreaker(0, fleet.Open, 20*time.Millisecond); err == nil {
		t.Error("WaitBreaker(open) on a healthy origin must time out")
	}

	tb.Origins[0].Kill()
	took, err := tb.WaitBreaker(0, fleet.Open, 2*time.Second)
	if err != nil || took <= 0 {
		t.Fatalf("after kill: took %v, %v", took, err)
	}
	if _, err := tb.WaitBreaker(1, fleet.Closed, time.Second); err != nil {
		t.Errorf("the surviving origin's breaker moved: %v", err)
	}
	tb.Origins[0].Revive()
	if _, err := tb.WaitBreaker(0, fleet.Closed, 2*time.Second); err != nil {
		t.Fatalf("after revive: %v", err)
	}
}

func TestSingleOriginEdgeIsNotFleetMode(t *testing.T) {
	tb := New()
	defer tb.Close()
	if _, err := tb.AddOrigin(OriginConfig{Manifest: testManifest(t)}); err != nil {
		t.Fatal(err)
	}
	e, err := tb.AddEdge(edge.Config{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if e.Fleet() != nil {
		t.Error("one origin must give a single-origin edge, like pano-edge -origins with one URL")
	}
	for _, want := range []string{"miss", "hit"} {
		resp, err := http.Get(e.URL + tile)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := resp.Header.Get("X-Cache"); resp.StatusCode != http.StatusOK || got != want {
			t.Errorf("GET through the edge: %d X-Cache=%q, want 200 %q", resp.StatusCode, got, want)
		}
	}
	if got := tb.Origins[0].TileRequests(); got != 1 {
		t.Errorf("origin saw %d tile requests, want the one miss", got)
	}
}

func TestCloseIsIdempotentAndLeavesNothingBehind(t *testing.T) {
	http.DefaultTransport.(*http.Transport).CloseIdleConnections() // earlier tests' keep-alives
	var before int
	eventually(t, "goroutine count settles", func() bool {
		n := runtime.NumGoroutine()
		settled := n == before
		before = n
		return settled
	})

	tb := New()
	for i := 0; i < 2; i++ {
		reg, tr := tb.NewObs()
		if _, err := tb.AddOrigin(OriginConfig{Manifest: testManifest(t), Obs: reg, Tracer: tr}); err != nil {
			t.Fatal(err)
		}
	}
	reg, tr := tb.NewObs()
	if _, err := tb.AddEdge(edge.Config{ProbeInterval: 5 * time.Millisecond, CacheBytes: 1 << 20, PrefetchBudget: 4, Obs: reg, Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	urls := []string{tb.Origins[0].URL, tb.Origins[1].URL, tb.Edges[0].URL, tb.ServeOps(tb.NewObs())}
	outs, aborted := Sessions(4, time.Millisecond, func(u int) (*client.StreamResult, error) {
		_, err := tb.Client(urls[u]).FetchRaw(context.Background(), "/healthz", "", once, nil)
		return &client.StreamResult{TotalBytes: u}, err
	})
	if aborted != 0 || len(outs) != 4 {
		t.Fatalf("healthz through every server: %d ok, %d aborted", len(outs), aborted)
	}

	tb.Close()
	tb.Close()
	for _, u := range urls {
		if listening(u) {
			t.Errorf("%s still accepts connections after Close", u)
		}
	}
	eventually(t, "goroutines return to the starting count", func() bool {
		return runtime.NumGoroutine() <= before
	})
}

func TestFailedAddClosesWhatWasStarted(t *testing.T) {
	tb := New()
	o, err := tb.AddOrigin(OriginConfig{Manifest: testManifest(t)})
	if err != nil {
		t.Fatal(err)
	}
	if !listening(o.URL) {
		t.Fatal("first origin is not up")
	}
	if _, err := tb.AddOrigin(OriginConfig{Manifest: &manifest.Video{}}); err == nil {
		t.Fatal("an invalid manifest must fail bring-up")
	}
	if listening(o.URL) {
		t.Error("the origin started before the failure is still up")
	}
	tb.Close() // still safe

	tb = New()
	if _, err := tb.AddEdge(edge.Config{}); err == nil {
		t.Error("an edge with no origin to front must fail")
	}
}

func TestSessionsKeepsOrderAndCountsAborts(t *testing.T) {
	var mu sync.Mutex
	var started []time.Time
	t0 := time.Now()
	outs, aborted := Sessions(4, 5*time.Millisecond, func(u int) (*client.StreamResult, error) {
		mu.Lock()
		started = append(started, time.Now())
		mu.Unlock()
		if u == 1 {
			return &client.StreamResult{}, errors.New("aborted")
		}
		return &client.StreamResult{TotalBytes: u}, nil
	})
	if aborted != 1 || len(outs) != 3 || outs[0].TotalBytes != 0 || outs[1].TotalBytes != 2 || outs[2].TotalBytes != 3 {
		t.Errorf("outs = %+v, aborted = %d; want sessions 0, 2, 3 in order and one abort", outs, aborted)
	}
	if last := started[len(started)-1].Sub(t0); last < 15*time.Millisecond {
		t.Errorf("last session started after %v, want >= 3 staggers of 5ms", last)
	}
}
