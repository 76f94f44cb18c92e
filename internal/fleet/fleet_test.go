package fleet

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pano/internal/client"
	"pano/internal/obs"
	"pano/internal/trace"
)

func TestRingDeterministicAndStable(t *testing.T) {
	origins := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	r1 := NewRing(origins, 64)
	r2 := NewRing(origins, 64)
	for i := 0; i < 200; i++ {
		path := fmt.Sprintf("/video/%d/%d/1.bin", i/12, i%12)
		k := r1.Key(path)
		o1, o2 := r1.Order(k), r2.Order(k)
		if len(o1) != len(origins) {
			t.Fatalf("Order covers %d origins, want %d", len(o1), len(origins))
		}
		seen := map[int]bool{}
		for j := range o1 {
			if o1[j] != o2[j] {
				t.Fatalf("ring order not deterministic for %s: %v vs %v", path, o1, o2)
			}
			if seen[o1[j]] {
				t.Fatalf("duplicate origin in order %v", o1)
			}
			seen[o1[j]] = true
		}
	}
	// Placement hashes origin names, so reordering the list moves no keys.
	rev := NewRing([]string{"http://d:1", "http://c:1", "http://b:1", "http://a:1"}, 64)
	for i := 0; i < 200; i++ {
		k := r1.Key(fmt.Sprintf("/video/%d/0/0.bin", i))
		if origins[r1.Order(k)[0]] != rev.origins[rev.Order(k)[0]] {
			t.Fatalf("owner moved under origin-list reordering (key %d)", k)
		}
	}
}

func TestRingBalance(t *testing.T) {
	origins := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	r := NewRing(origins, 0)
	counts := make([]int, len(origins))
	const n = 4000
	for i := 0; i < n; i++ {
		counts[r.Order(r.Key(fmt.Sprintf("/video/%d/%d/2.bin", i/16, i%16)))[0]]++
	}
	for i, c := range counts {
		if c < n/len(origins)/3 || c > n*2/len(origins) {
			t.Errorf("origin %d owns %d/%d keys; ring badly unbalanced %v", i, c, n, counts)
		}
	}
}

func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(1000, 0)
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, OpenFor: 2 * time.Second}, 7)
	for i := 0; i < 2; i++ {
		if ok, _ := b.Allow(now); !ok {
			t.Fatal("closed breaker must allow")
		}
		b.Failure(now)
	}
	b.Success(now)
	if b.State(now) != Closed {
		t.Fatal("success must reset the failure streak")
	}
	for i := 0; i < 3; i++ {
		b.Failure(now)
	}
	if b.State(now) != Open {
		t.Fatalf("state after %d consecutive failures = %v, want open", 3, b.State(now))
	}
	if ok, _ := b.Allow(now); ok {
		t.Fatal("open breaker must reject")
	}
	if b.Available(now) {
		t.Fatal("open breaker must be unavailable")
	}
	// After the (jittered: at most 1.25*OpenFor) interval a single probe
	// is admitted; concurrent requests keep being rejected.
	later := now.Add(3 * time.Second)
	if !b.Available(later) {
		t.Fatal("due breaker must be available")
	}
	ok, probe := b.Allow(later)
	if !ok || !probe {
		t.Fatalf("due breaker Allow = (%v, %v), want one probe", ok, probe)
	}
	if ok, _ := b.Allow(later); ok {
		t.Fatal("second concurrent probe admitted")
	}
	// Probe failure reopens; probe success closes.
	b.Failure(later)
	if b.State(later) != Open {
		t.Fatal("failed probe must reopen")
	}
	later = later.Add(3 * time.Second)
	if ok, probe := b.Allow(later); !ok || !probe {
		t.Fatal("reopened breaker must admit a probe after its interval")
	}
	b.Success(later)
	if b.State(later) != Closed {
		t.Fatal("successful probe must close")
	}
	// A cancelled probe releases its slot without deciding health.
	for i := 0; i < 3; i++ {
		b.Failure(later)
	}
	later = later.Add(3 * time.Second)
	if ok, probe := b.Allow(later); !ok || !probe {
		t.Fatal("probe not admitted")
	}
	b.ReleaseProbe()
	if ok, probe := b.Allow(later); !ok || !probe {
		t.Fatal("released probe slot must admit the next probe")
	}
}

func TestBudgetBounds(t *testing.T) {
	b := NewBudget(0.5, 2)
	// Starts full: two spends succeed, the third fails.
	if !b.Spend() || !b.Spend() {
		t.Fatal("fresh bucket must hold its burst")
	}
	if b.Spend() {
		t.Fatal("empty bucket must reject")
	}
	b.Earn()
	if b.Spend() {
		t.Fatal("half a token must not spend")
	}
	b.Earn()
	if !b.Spend() {
		t.Fatal("a full token must spend")
	}
	for i := 0; i < 100; i++ {
		b.Earn()
	}
	if got := b.Tokens(); got != 2 {
		t.Fatalf("bucket exceeded burst: %v", got)
	}
}

// tileBody is the canonical test object.
const tileBody = "tile-bytes"

// newOriginServer serves every path with a counter; fail flips it to
// connection-abort mode (a hard outage).
func newOriginServer(t *testing.T) (*httptest.Server, *atomic.Int64, *atomic.Bool) {
	t.Helper()
	var hits atomic.Int64
	var down atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if down.Load() {
			panic(http.ErrAbortHandler)
		}
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.Header().Set("ETag", `"v1"`)
		w.Write([]byte(tileBody))
	}))
	t.Cleanup(ts.Close)
	return ts, &hits, &down
}

func testConfig(t *testing.T, urls []string) Config {
	return Config{
		Origins: urls,
		Seed:    7,
		Fetch: client.FetchPolicy{
			MaxAttempts:       2,
			BaseBackoff:       time.Millisecond,
			MaxBackoff:        4 * time.Millisecond,
			AttemptTimeout:    2 * time.Second,
			MinAttemptTimeout: 10 * time.Millisecond,
			HedgeDelay:        -1, // most tests exercise failover, not hedging
		},
		Breaker: BreakerConfig{FailureThreshold: 3, OpenFor: 100 * time.Millisecond},
		Obs:     obs.NewRegistry(),
	}
}

func TestNewValidatesOrigins(t *testing.T) {
	for _, bad := range [][]string{
		nil,
		{"not-a-url"},
		{"ftp://host:1"},
		{"http://"},
		{"http://ok:1", "::::"},
	} {
		if _, err := New(Config{Origins: bad}); err == nil {
			t.Errorf("New(%v) accepted", bad)
		}
	}
	f, err := New(Config{Origins: []string{"http://a:1", "https://b"}})
	if err != nil {
		t.Fatalf("valid origins rejected: %v", err)
	}
	f.Close()
}

func TestFetchRoutesAcrossShards(t *testing.T) {
	var urls []string
	var hits []*atomic.Int64
	for i := 0; i < 3; i++ {
		ts, h, _ := newOriginServer(t)
		urls = append(urls, ts.URL)
		hits = append(hits, h)
	}
	f, err := New(testConfig(t, urls))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 60; i++ {
		res, err := f.Fetch(context.Background(), fmt.Sprintf("/video/%d/%d/1.bin", i/12, i%12), "")
		if err != nil || res.Status != 200 || string(res.Body) != tileBody {
			t.Fatalf("fetch %d: %+v err %v", i, res, err)
		}
	}
	for i, h := range hits {
		if h.Load() == 0 {
			t.Errorf("origin %d never hit: consistent hashing is not spreading keys", i)
		}
	}
	// Conditional GET passes the validator through.
	res, err := f.Fetch(context.Background(), "/video/0/0/1.bin", `"v1"`)
	if err != nil || res.ETag != `"v1"` {
		t.Fatalf("etag fetch: %+v err %v", res, err)
	}
}

func TestFailoverOnShardLoss(t *testing.T) {
	var urls []string
	var downs []*atomic.Bool
	for i := 0; i < 3; i++ {
		ts, _, d := newOriginServer(t)
		urls = append(urls, ts.URL)
		downs = append(downs, d)
	}
	cfg := testConfig(t, urls)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	downs[0].Store(true) // kill shard 0
	for i := 0; i < 40; i++ {
		res, err := f.Fetch(context.Background(), fmt.Sprintf("/video/%d/%d/1.bin", i/12, i%12), "")
		if err != nil || res.Status != 200 {
			t.Fatalf("fetch %d with one dead shard: %+v err %v", i, res, err)
		}
	}
	if got := cfg.Obs.CounterValue("pano_fleet_failovers_total"); got == 0 {
		t.Error("no failovers recorded with a dead shard")
	}
	if got := cfg.Obs.GaugeValue("pano_fleet_origins_open"); got < 1 {
		t.Errorf("origins_open = %v, want >= 1 after sustained failures", got)
	}
	st := f.Snapshot()
	if st[0].Breaker == Closed {
		t.Errorf("dead origin breaker still closed: %+v", st)
	}
	// Recovery: the shard comes back, the half-open probe closes the
	// breaker through regular traffic.
	downs[0].Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for f.Snapshot()[0].Breaker != Closed && time.Now().Before(deadline) {
		for i := 0; i < 12; i++ {
			f.Fetch(context.Background(), fmt.Sprintf("/video/9/%d/1.bin", i), "")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st := f.Snapshot(); st[0].Breaker != Closed {
		t.Errorf("recovered origin breaker never closed: %+v", st)
	}
}

func TestBreakerBoundsDeadOriginTraffic(t *testing.T) {
	var urls []string
	var hits []*atomic.Int64
	var downs []*atomic.Bool
	for i := 0; i < 2; i++ {
		ts, h, d := newOriginServer(t)
		urls = append(urls, ts.URL)
		hits = append(hits, h)
		downs = append(downs, d)
	}
	cfg := testConfig(t, urls)
	cfg.Breaker = BreakerConfig{FailureThreshold: 3, OpenFor: time.Minute}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	downs[0].Store(true)
	for i := 0; i < 200; i++ {
		if _, err := f.Fetch(context.Background(), fmt.Sprintf("/video/%d/%d/1.bin", i/12, i%12), ""); err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
	}
	// With the breaker latched open for a minute, the dead origin sees
	// only the initial failure streaks, not 1 request per fetch.
	if got := hits[0].Load(); got > 40 {
		t.Errorf("dead origin absorbed %d requests; breaker is not bounding retries", got)
	}
}

// TestInFlightFailuresFailOverFree is policy 2's late failure on the
// wire, as an edge's concurrent fills meet it: 30 fetches owned by one
// origin are all in flight to it when it resets every one. The first
// two failures trip its breaker (threshold 2) and buy their failovers;
// the other 28 come back to a tripped breaker and fail over free. So
// the default budget (burst 8) answers all 30 from the live origin.
func TestInFlightFailuresFailOverFree(t *testing.T) {
	const n = 30
	var arrived atomic.Int64
	all := make(chan struct{})
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if arrived.Add(1) == n {
			close(all)
		}
		select {
		case <-all:
		case <-time.After(time.Second):
		}
		panic(http.ErrAbortHandler)
	}))
	t.Cleanup(dead.Close)
	live, hits, _ := newOriginServer(t)
	cfg := testConfig(t, []string{dead.URL, live.URL})
	cfg.Breaker = BreakerConfig{FailureThreshold: 2, OpenFor: time.Minute}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var paths []string
	for i := 0; len(paths) < n; i++ {
		p := fmt.Sprintf("/video/%d/%d/1.bin", i/30, i%30)
		if f.ring.Order(f.ring.Key(p))[0] == 0 {
			paths = append(paths, p)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i, p := range paths {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = f.Fetch(context.Background(), p, "")
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("fetch %s: %v", paths[i], err)
		}
	}
	if got := arrived.Load(); got != n {
		t.Errorf("the dead origin saw %d requests, want %d", got, n)
	}
	if got := hits.Load(); got != n {
		t.Errorf("the live origin answered %d requests, want %d", got, n)
	}
	if got := f.budget.Tokens(); got != 6 {
		t.Errorf("budget %v after the failovers, want 6 (8 less the two that tripped the breaker)", got)
	}
}

func TestHedgedFetchWinsOnSlowPrimary(t *testing.T) {
	var slow atomic.Bool
	var hits0 atomic.Int64
	ts0 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits0.Add(1)
		if slow.Load() && r.URL.Path != "/healthz" {
			time.Sleep(300 * time.Millisecond)
		}
		w.Write([]byte(tileBody))
	}))
	defer ts0.Close()
	ts1, _, _ := newOriginServer(t)

	cfg := testConfig(t, []string{ts0.URL, ts1.URL})
	cfg.Fetch.HedgeDelay = 20 * time.Millisecond
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	setBudget(f, 1, 100)
	defer f.Close()

	// Find a path owned by the slow origin.
	var path string
	for i := 0; ; i++ {
		p := fmt.Sprintf("/video/%d/3/1.bin", i)
		if f.ring.Order(f.ring.Key(p))[0] == 0 {
			path = p
			break
		}
	}
	slow.Store(true)
	tctx, root := trace.New(trace.Config{Seed: 5}).Start(context.Background(), "test")
	defer root.End()
	t0 := time.Now()
	res, err := f.Fetch(tctx, path, "")
	if err != nil || res.Status != 200 {
		t.Fatalf("hedged fetch: %+v err %v", res, err)
	}
	if d := time.Since(t0); d >= 300*time.Millisecond {
		t.Errorf("hedged fetch took %v; the backup should have won well before the 300ms primary", d)
	}
	if got := cfg.Obs.CounterValue("pano_client_hedge_issued_total"); got != 1 {
		t.Errorf("hedge_issued = %v, want 1", got)
	}
	if got := cfg.Obs.CounterValue("pano_client_hedge_wins_total"); got != 1 {
		t.Errorf("hedge_wins = %v, want 1", got)
	}
	if _, ok := cfg.Obs.CounterExemplar("pano_client_hedge_issued_total"); !ok {
		t.Error("hedge_issued carries no exemplar")
	}
	// The cancelled primary eventually unwinds and is counted.
	deadline := time.Now().Add(2 * time.Second)
	for cfg.Obs.CounterValue("pano_client_hedge_cancelled_total")+
		cfg.Obs.CounterSum("pano_fleet_failures_total") == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
}

func TestBudgetExhaustionStopsRetryStorm(t *testing.T) {
	var urls []string
	var hits []*atomic.Int64
	var downs []*atomic.Bool
	for i := 0; i < 2; i++ {
		ts, h, d := newOriginServer(t)
		urls = append(urls, ts.URL)
		hits = append(hits, h)
		downs = append(downs, d)
		d.Store(true)
	}
	cfg := testConfig(t, urls)
	cfg.Breaker = BreakerConfig{FailureThreshold: 1000, OpenFor: time.Minute} // isolate the budget
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	setBudget(f, 0.1, 3)
	defer f.Close()
	tctx, root := trace.New(trace.Config{Seed: 5}).Start(context.Background(), "test")
	defer root.End()
	for i := 0; i < 50; i++ {
		if _, err := f.Fetch(tctx, fmt.Sprintf("/video/%d/0/1.bin", i), ""); err == nil {
			t.Fatal("fetch succeeded with every origin down")
		}
	}
	if got := cfg.Obs.CounterValue("pano_fleet_budget_exhausted_total"); got == 0 {
		t.Error("budget never reported exhaustion with every origin down")
	}
	if _, ok := cfg.Obs.CounterExemplar("pano_fleet_budget_exhausted_total"); !ok {
		t.Error("budget_exhausted carries no exemplar")
	}
	// 50 fetches, burst 3, earn 0.1/fetch: ~50 primaries + <=10 budgeted
	// extras per origin pair. Well under a retry storm's 50*2*2.
	total := hits[0].Load() + hits[1].Load()
	if total > 80 {
		t.Errorf("%d origin requests for 50 failed fetches; budget is not bounding retries", total)
	}
}

func TestActiveProbesRecoverIdleFleet(t *testing.T) {
	ts0, _, down := newOriginServer(t)
	ts1, _, _ := newOriginServer(t)
	cfg := testConfig(t, []string{ts0.URL, ts1.URL})
	cfg.ProbeInterval = 30 * time.Millisecond
	cfg.Breaker = BreakerConfig{FailureThreshold: 2, OpenFor: 50 * time.Millisecond}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Probes alone must open the breaker of a dead origin...
	down.Store(true)
	deadline := time.Now().Add(5 * time.Second)
	for f.Snapshot()[0].Breaker == Closed && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if st := f.Snapshot(); st[0].Breaker == Closed {
		t.Fatalf("probes never opened the dead origin's breaker: %+v", st)
	}
	// ...and close it again after recovery, with zero request traffic.
	down.Store(false)
	deadline = time.Now().Add(5 * time.Second)
	for f.Snapshot()[0].Breaker != Closed && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if st := f.Snapshot(); st[0].Breaker != Closed {
		t.Fatalf("probes never closed the recovered origin's breaker: %+v", st)
	}
	if got := cfg.Obs.CounterValue("pano_fleet_probes_total",
		obs.L("origin", "0"), obs.L("result", "up")); got == 0 {
		t.Error("no successful probes recorded")
	}
}

func TestPickAvoidsOpenBreakers(t *testing.T) {
	ts0, _, down := newOriginServer(t)
	ts1, _, _ := newOriginServer(t)
	cfg := testConfig(t, []string{ts0.URL, ts1.URL})
	cfg.Breaker = BreakerConfig{FailureThreshold: 1, OpenFor: time.Minute}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var path string
	for i := 0; ; i++ {
		p := "/video/" + strconv.Itoa(i) + "/0/0.bin"
		if f.ring.Order(f.ring.Key(p))[0] == 0 {
			path = p
			break
		}
	}
	if got := f.Pick(path); got != ts0.URL {
		t.Fatalf("Pick = %s, want owner %s", got, ts0.URL)
	}
	down.Store(true)
	f.Fetch(context.Background(), path, "") // trips breaker 0 (threshold 1)
	if got := f.Pick(path); got != ts1.URL {
		t.Errorf("Pick = %s after owner breaker opened, want successor %s", got, ts1.URL)
	}
}

// TestBudgetExhaustionReleasesProbe: when a ladder rung lands on a
// half-open breaker (Allow consumes the single probe slot) and the
// retry budget is dry, Fetch must hand the slot back. In passive-only
// mode (ProbeInterval 0) nothing else ever resets probing, so a leaked
// slot would exclude the origin from Pick/Fetch permanently.
func TestBudgetExhaustionReleasesProbe(t *testing.T) {
	ts0, _, down0 := newOriginServer(t)
	ts1, _, _ := newOriginServer(t)
	cfg := testConfig(t, []string{ts0.URL, ts1.URL})
	cfg.Breaker = BreakerConfig{FailureThreshold: 1, OpenFor: time.Millisecond}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	setBudget(f, 0.001, 1)
	defer f.Close()

	// A path owned by origin 0, so the ladder reaches origin 1 with
	// tried > 0 (the rung that consults the budget).
	var path string
	for i := 0; ; i++ {
		path = fmt.Sprintf("/video/%d/0/1.bin", i)
		if f.ring.Order(f.ring.Key(path))[0] == 0 {
			break
		}
	}
	down0.Store(true)             // first rung fails, spending no budget
	f.ors[1].brk.Failure(f.now()) // threshold 1: origin 1 opens
	for f.budget.Spend() {        // drain the bucket
	}
	time.Sleep(5 * time.Millisecond) // past the (jittered <= 1.25x) OpenFor

	if _, err := f.Fetch(context.Background(), path, ""); err == nil {
		t.Fatal("fetch succeeded with origin 0 down and a dry budget")
	}
	if got := cfg.Obs.CounterValue("pano_fleet_budget_exhausted_total"); got == 0 {
		t.Fatal("budget never reported exhaustion — scenario did not reach the denied rung")
	}
	if !f.ors[1].brk.Available(f.now()) {
		t.Fatal("budget-exhausted ladder leaked origin 1's half-open probe slot")
	}
}

// setBudget replaces f's retry/hedge budget with a full one that earns
// ratio tokens per primary request and holds at most burst.
func setBudget(f *Fleet, ratio, burst float64) {
	f.lad.budget = NewBudget(ratio, burst)
	f.budget = f.lad.budget
}
