package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pano/internal/chaos"
	"pano/internal/codec"
	"pano/internal/mathx"
	"pano/internal/obs"
	"pano/internal/server"
)

// fastFetchPolicy keeps the ladder's timing cost negligible in tests.
func fastFetchPolicy() FetchPolicy {
	return FetchPolicy{
		MaxAttempts:       2,
		BaseBackoff:       time.Millisecond,
		MaxBackoff:        4 * time.Millisecond,
		AttemptTimeout:    2 * time.Second,
		MinAttemptTimeout: 50 * time.Millisecond,
		Seed:              7,
	}
}

// failFirstPerPath 500s the first request to each distinct tile path and
// delegates afterwards: every tile needs exactly one retry.
func failFirstPerPath(inner http.Handler) http.Handler {
	var mu sync.Mutex
	seen := map[string]bool{}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/video/") {
			mu.Lock()
			first := !seen[r.URL.Path]
			seen[r.URL.Path] = true
			mu.Unlock()
			if first {
				http.Error(w, "first attempt fails", http.StatusInternalServerError)
				return
			}
		}
		inner.ServeHTTP(w, r)
	})
}

func TestStreamRetryThenSucceed(t *testing.T) {
	s, err := server.New(fixture(t).man)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(failFirstPerPath(s.Handler()))
	defer ts.Close()

	res, err, reg, el := streamWithObs(t, ts.URL, context.Background(), StreamConfig{
		MaxChunks: 2, Fetch: fastFetchPolicy(),
	})
	if err != nil {
		t.Fatalf("retryable failures must not abort: %v", err)
	}
	if res.TotalRetries == 0 {
		t.Error("no retries recorded")
	}
	if res.DegradedTiles != 0 || res.SkippedTiles != 0 {
		t.Errorf("retry-then-succeed should not degrade (%d) or skip (%d)",
			res.DegradedTiles, res.SkippedTiles)
	}
	if status := summaryStatus(t, el); status != "ok" {
		t.Errorf("summary status %q, want ok", status)
	}
	if got := reg.CounterSum("pano_client_tile_retries_total"); got != float64(res.TotalRetries) {
		t.Errorf("retries counter %v, result has %d", got, res.TotalRetries)
	}
	// Satellite fix: retry events carry an error class, not a raw error
	// string, and the counter is labeled by the same class.
	if e, ok := el.Last("tile_retry"); !ok || e.Str("class") != "http_5xx" {
		t.Errorf("tile_retry event class = %q, want http_5xx", e.Str("class"))
	}
	if got := reg.CounterValue("pano_client_tile_retries_total",
		obs.L("class", "http_5xx")); got != float64(res.TotalRetries) {
		t.Errorf("class-labeled retries counter %v, result has %d", got, res.TotalRetries)
	}
}

func TestStreamDegradesToLowest(t *testing.T) {
	s, err := server.New(fixture(t).man)
	if err != nil {
		t.Fatal(err)
	}
	inner := s.Handler()
	lowest := codec.Level(codec.NumLevels - 1)
	// Only the lowest level is servable: every higher-level fetch must
	// walk the ladder down instead of aborting.
	onlyLowest := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/video/") {
			if _, _, l, perr := server.ParseTilePath(r.URL.Path); perr == nil && l != lowest {
				http.Error(w, "level unavailable", http.StatusInternalServerError)
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	defer onlyLowest.Close()

	res, err, reg, el := streamWithObs(t, onlyLowest.URL, context.Background(), StreamConfig{
		MaxChunks: 2, Fetch: fastFetchPolicy(),
	})
	if err != nil {
		t.Fatalf("degradable failures must not abort: %v", err)
	}
	if res.SkippedTiles != 0 {
		t.Errorf("%d tiles skipped; the lowest rung was servable", res.SkippedTiles)
	}
	if res.DegradedTiles == 0 {
		t.Error("no tiles degraded although only the lowest level is servable")
	}
	for _, ch := range res.Chunks {
		for ti, l := range ch.Levels {
			if l != lowest {
				t.Fatalf("chunk %d tile %d delivered at level %v, want lowest", ch.Chunk, ti, l)
			}
		}
	}
	if status := summaryStatus(t, el); status != "tile_degraded" {
		t.Errorf("summary status %q, want tile_degraded", status)
	}
	if got := reg.CounterValue("pano_client_tiles_degraded_total"); got != float64(res.DegradedTiles) {
		t.Errorf("degraded counter %v, result has %d", got, res.DegradedTiles)
	}
}

func TestStreamSkipsOneTileAndContinues(t *testing.T) {
	s, err := server.New(fixture(t).man)
	if err != nil {
		t.Fatal(err)
	}
	inner := s.Handler()
	// Tile 0 is gone at every level; everything else is healthy.
	noTile0 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/video/") {
			if _, ti, _, perr := server.ParseTilePath(r.URL.Path); perr == nil && ti == 0 {
				http.Error(w, "tile lost", http.StatusInternalServerError)
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	defer noTile0.Close()

	const chunks = 2
	res, err, _, el := streamWithObs(t, noTile0.URL, context.Background(), StreamConfig{
		MaxChunks: chunks, Fetch: fastFetchPolicy(),
	})
	if err != nil {
		t.Fatalf("one dead tile must not abort the session: %v", err)
	}
	if res.SkippedTiles != chunks {
		t.Errorf("SkippedTiles = %d, want %d (tile 0 of each chunk)", res.SkippedTiles, chunks)
	}
	if len(res.Chunks) != chunks {
		t.Fatalf("session stopped early: %d chunks", len(res.Chunks))
	}
	for _, ch := range res.Chunks {
		if ch.Skipped != 1 {
			t.Errorf("chunk %d Skipped = %d, want 1", ch.Chunk, ch.Skipped)
		}
		if ch.Levels[0] != codec.Level(codec.NumLevels-1) {
			t.Errorf("chunk %d skipped tile reported level %v, want lowest", ch.Chunk, ch.Levels[0])
		}
	}
	if status := summaryStatus(t, el); status != "tile_skipped" {
		t.Errorf("summary status %q, want tile_skipped", status)
	}
	if e, ok := fixtureEventLog(el, "tile_skipped"); !ok || e.Str("error") == "" {
		t.Error("no tile_skipped event with an error recorded")
	}
}

// fixtureEventLog fetches the last event with the given message.
func fixtureEventLog(el *obs.EventLog, msg string) (obs.Event, bool) {
	return el.Last(msg)
}

func TestFetchResilientDeadlineExpiryMidBody(t *testing.T) {
	s, err := server.New(fixture(t).man)
	if err != nil {
		t.Fatal(err)
	}
	// Every tile body stalls far longer than the attempt deadline: each
	// attempt must be cut off by its own timeout, and the ladder must end
	// in a bounded-time skip rather than hanging.
	in := chaos.New(chaos.Profile{Seed: 5, Tile: chaos.Rule{StallRate: 1, StallFor: 2 * time.Second}})
	ts := httptest.NewServer(in.Wrap(s.Handler()))
	defer ts.Close()

	pol := fastFetchPolicy()
	pol.AttemptTimeout = 40 * time.Millisecond
	reg := obs.NewRegistry()
	w := &watcher{reg: reg}
	w.streaming(fixture(t).man)
	f := Fetcher{tp: New(ts.URL), clk: RealClock{}, pol: pol, rng: mathx.NewRNG(1), w: w}

	t0 := time.Now()
	var tf tileFetch
	err = f.fetch(context.Background(), 0, 0, 0, pol.AttemptTimeout, &tf)
	elapsed := time.Since(t0)
	if err != nil {
		t.Fatalf("deadline expiry must resolve to a skip, not an error: %v", err)
	}
	if !tf.skipped {
		t.Error("stalled tile was not skipped")
	}
	wantAttempts := 2 * pol.MaxAttempts // planned rung + lowest rung
	if tf.retries != wantAttempts {
		t.Errorf("retries = %d, want %d", tf.retries, wantAttempts)
	}
	if got := reg.HistogramCount("pano_client_tile_attempt_seconds"); got != uint64(wantAttempts) {
		t.Errorf("attempt histogram count %d, want %d", got, wantAttempts)
	}
	// 4 attempts x 40ms + small backoffs; nowhere near the 2s stall.
	if elapsed > time.Second {
		t.Errorf("ladder took %v; attempt deadlines are not firing", elapsed)
	}

	// A canceled session context propagates instead of degrading.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := f.fetch(ctx, 0, 0, 0, pol.AttemptTimeout, &tf); err == nil {
		t.Error("canceled context must propagate an error")
	}
}

func TestThroughputExcludesRetryOverhead(t *testing.T) {
	s, err := server.New(fixture(t).man)
	if err != nil {
		t.Fatal(err)
	}
	inner := s.Handler()
	var mu sync.Mutex
	seen := map[string]bool{}
	// First attempt per tile burns 30ms and fails; the retry is instant.
	// Wall-clock download time inflates, measured throughput must not.
	slowFail := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/video/") {
			mu.Lock()
			first := !seen[r.URL.Path]
			seen[r.URL.Path] = true
			mu.Unlock()
			if first {
				time.Sleep(30 * time.Millisecond)
				http.Error(w, "slow failure", http.StatusInternalServerError)
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	defer slowFail.Close()

	res, err := New(slowFail.URL).Stream(context.Background(), fixture(t).tr, StreamConfig{
		MaxChunks: 1, Fetch: fastFetchPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ch := res.Chunks[0]
	if ch.Retries == 0 {
		t.Fatal("no retries happened; the test server is wrong")
	}
	wallBps := float64(ch.Bytes*8) / ch.Download.Seconds()
	if ch.Throughput <= wallBps {
		t.Errorf("throughput %v <= wall-clock rate %v: retry overhead poisoned the measurement",
			ch.Throughput, wallBps)
	}
}

func TestStreamChaosConcurrentStress(t *testing.T) {
	s, err := server.New(fixture(t).man)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	in := chaos.New(chaos.Profile{
		Seed: 2019,
		Tile: chaos.Rule{ErrorRate: 0.2, Latency: 200 * time.Microsecond},
	}, chaos.WithObs(reg))
	ts := httptest.NewServer(in.Wrap(s.Handler()))
	defer ts.Close()

	const sessions = 8
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	results := make([]*StreamResult, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pol := fastFetchPolicy()
			pol.Seed = uint64(i + 1)
			results[i], errs[i] = New(ts.URL).Stream(context.Background(), fixture(t).tr,
				StreamConfig{MaxChunks: 2, Fetch: pol})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d aborted under chaos: %v", i, err)
		}
		if len(results[i].Chunks) != 2 {
			t.Errorf("session %d streamed %d chunks", i, len(results[i].Chunks))
		}
	}
	if got := reg.CounterValue("pano_chaos_injections_total",
		obs.L("endpoint", "tile"), obs.L("kind", "error")); got == 0 {
		t.Error("chaos injected nothing; the stress test exercised no failures")
	}
}

func TestChaosDisabledByteIdentical(t *testing.T) {
	f := fixture(t)
	s, err := server.New(f.man)
	if err != nil {
		t.Fatal(err)
	}
	direct := httptest.NewServer(s.Handler())
	defer direct.Close()
	wrapped := httptest.NewServer(chaos.New(chaos.Profile{}).Wrap(s.Handler()))
	defer wrapped.Close()

	// Cap the controller's bandwidth input so decisions don't depend on
	// noisy loopback throughput: the two sessions must then make the
	// exact same level choices and download the exact same bytes. They
	// stream through New, HTTP/1.1, whose idle pool holds a whole turn's
	// connections.
	cfg := StreamConfig{MaxRateBps: 0.35 * topRate(f.man), Fetch: FetchPolicy{Seed: 1}}
	a, err := New(direct.URL).Stream(context.Background(), f.tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(wrapped.URL).Stream(context.Background(), f.tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalRetries != 0 || b.TotalRetries != 0 || b.DegradedTiles != 0 || b.SkippedTiles != 0 {
		t.Fatalf("healthy sessions recorded failures: %+v vs %+v", a, b)
	}
	if len(a.Chunks) != len(b.Chunks) {
		t.Fatalf("chunk counts differ: %d vs %d", len(a.Chunks), len(b.Chunks))
	}
	for i := range a.Chunks {
		ca, cb := a.Chunks[i], b.Chunks[i]
		if ca.Bytes != cb.Bytes {
			t.Errorf("chunk %d bytes %d vs %d", i, ca.Bytes, cb.Bytes)
		}
		for ti := range ca.Levels {
			if ca.Levels[ti] != cb.Levels[ti] {
				t.Errorf("chunk %d tile %d level %v vs %v", i, ti, ca.Levels[ti], cb.Levels[ti])
			}
		}
	}
	if a.TotalBytes != b.TotalBytes {
		t.Errorf("total bytes %d vs %d", a.TotalBytes, b.TotalBytes)
	}
}
