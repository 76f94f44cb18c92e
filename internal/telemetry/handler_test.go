package telemetry

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSLOHandlerJSON(t *testing.T) {
	s, reg, _ := newTestSampler(t, rateSLO())
	bad := reg.Counter("bad_seconds_total", "stall seconds")

	get := func() (int, string, map[string]any) {
		rec := httptest.NewRecorder()
		s.SLOHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slo", nil))
		var body map[string]any
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
			}
		}
		return rec.Code, rec.Header().Get("Content-Type"), body
	}

	// Before any Step: configured shape at ok.
	code, ct, body := get()
	if code != http.StatusOK || ct != "application/json" {
		t.Fatalf("GET = %d %q, want 200 application/json", code, ct)
	}
	if body["state"] != "ok" {
		t.Errorf("initial state = %v, want ok", body["state"])
	}
	slos := body["slos"].([]any)
	if len(slos) != 1 {
		t.Fatalf("slos = %d entries, want 1", len(slos))
	}
	if nm := slos[0].(map[string]any)["name"]; nm != "stall" {
		t.Errorf("slo name = %v, want stall", nm)
	}

	// Drive the SLO to page: the rollup follows the worst state.
	for i := 0; i < 25; i++ {
		s.Step(at(i))
	}
	for i := 25; i < 40; i++ {
		bad.Add(1)
		s.Step(at(i))
	}
	if _, _, body = get(); body["state"] != "page" {
		t.Errorf("state under burn = %v, want page", body["state"])
	}
	st := body["slos"].([]any)[0].(map[string]any)
	if st["state"] != "page" || st["burn_fast"].(float64) < 6 {
		t.Errorf("slo status = %v, want paged with burn_fast >= 6", st)
	}

	// Method gating.
	rec := httptest.NewRecorder()
	s.SLOHandler().ServeHTTP(rec, httptest.NewRequest("POST", "/debug/slo", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST = %d, want 405", rec.Code)
	}

	// Nil sampler serves 404 from both handlers.
	var nilS *Sampler
	for _, h := range []http.Handler{nilS.SLOHandler(), nilS.DashHandler()} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("nil sampler handler = %d, want 404", rec.Code)
		}
	}
}

func TestDashHandlerHTML(t *testing.T) {
	s, _, _ := newTestSampler(t, rateSLO())
	rec := httptest.NewRecorder()
	s.DashHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/dash", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET = %d, want 200", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("Content-Type = %q, want text/html", ct)
	}
	page := rec.Body.String()
	// Self-contained: the page must carry its own SSE client, no assets.
	for _, want := range []string{"EventSource", "?stream=1", "<canvas>"} {
		if !strings.Contains(page, want) {
			t.Errorf("dashboard page missing %q", want)
		}
	}

	rec = httptest.NewRecorder()
	s.DashHandler().ServeHTTP(rec, httptest.NewRequest("DELETE", "/debug/dash", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("DELETE = %d, want 405", rec.Code)
	}
}

func TestDashSnapshotShaping(t *testing.T) {
	s, reg, _ := newTestSampler(t, rateSLO())
	c := reg.Counter("reqs_total", "r")
	g := reg.Gauge("buf_sec", "b")
	h := reg.Histogram("lat_seconds", "l", []float64{0.1, 1})
	for i := 0; i < 5; i++ {
		c.Add(3)
		g.Set(float64(i))
		h.Observe(0.05)
		s.Step(at(i))
	}
	snap := s.dashSnapshot(at(4))

	kinds := map[string]string{}
	for _, ds := range snap.Series {
		kinds[ds.Name] = ds.Kind
		if strings.HasPrefix(ds.Name, "pano_telemetry_") {
			t.Errorf("self-metric %s leaked onto the dashboard", ds.Name)
		}
	}
	if kinds["reqs_total"] != "rate" {
		t.Errorf("counter kind = %q, want rate", kinds["reqs_total"])
	}
	if kinds["buf_sec"] != "gauge" {
		t.Errorf("gauge kind = %q, want gauge", kinds["buf_sec"])
	}
	if kinds["lat_seconds"] != "p99" {
		t.Errorf("histogram kind = %q, want p99", kinds["lat_seconds"])
	}
	for _, ds := range snap.Series {
		if ds.Name == "reqs_total" {
			// Per-tick deltas: +3 each scrape after the first.
			for i, v := range ds.Points {
				if v != 3 {
					t.Errorf("rate point %d = %v, want 3", i, v)
				}
			}
		}
	}
	if len(snap.SLOs) != 1 || snap.NSeries == 0 || snap.Scrapes != 5 {
		t.Errorf("frame meta = %d slos, %d series, %v scrapes", len(snap.SLOs), snap.NSeries, snap.Scrapes)
	}
}

// sseFrames reads SSE "data:" payloads from a live stream into out until
// the context ends or n frames arrive.
func sseFrames(t *testing.T, body io.Reader, n int, out chan<- DashSnapshot) {
	t.Helper()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	got := 0
	for sc.Scan() && got < n {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var snap DashSnapshot
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &snap); err != nil {
			t.Errorf("bad SSE frame: %v", err)
			return
		}
		out <- snap
		got++
	}
}

func TestSSEStreamDeliversFrames(t *testing.T) {
	s, reg, _ := newTestSampler(t, rateSLO())
	bad := reg.Counter("bad_seconds_total", "stall seconds")
	s.Step(at(0))

	srv := httptest.NewServer(s.DashHandler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"?stream=1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}

	frames := make(chan DashSnapshot, 4)
	go sseFrames(t, resp.Body, 3, frames)

	// Frame 1 arrives immediately (the initial snapshot), before any
	// further Step.
	select {
	case f := <-frames:
		if f.NSeries == 0 {
			t.Errorf("initial frame has no series")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no initial SSE frame")
	}

	// Each Step publishes one more frame to the live subscriber.
	bad.Add(1)
	s.Step(at(1))
	bad.Add(1)
	s.Step(at(2))
	for i := 0; i < 2; i++ {
		select {
		case f := <-frames:
			if len(f.SLOs) != 1 {
				t.Errorf("frame %d: %d slos, want 1", i, len(f.SLOs))
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("SSE frame %d never arrived", i)
		}
	}

	// Client disconnect unregisters the subscriber: publishing again
	// must not leak or block, and the subscriber count returns to zero.
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.subMu.Lock()
		n := len(s.subs)
		s.subMu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("subscriber not unregistered after disconnect (%d left)", n)
		}
		time.Sleep(time.Millisecond)
		s.Step(at(3))
	}
}

func TestSSESlowClientDropsNotBlocks(t *testing.T) {
	s, reg, _ := newTestSampler(t, rateSLO())
	ch, cancel := s.subscribe()
	defer cancel()
	_ = ch // never read: the channel fills and publish must drop

	for i := 0; i < 20; i++ {
		s.Step(at(i)) // must not block on the stuck subscriber
	}
	if v := reg.CounterValue("pano_telemetry_sse_dropped_total"); v == 0 {
		t.Errorf("pano_telemetry_sse_dropped_total = %v, want > 0", v)
	}
}

// TestScrapeWhileServingStress hammers one sampler from every direction
// at once — metric writers, Step ticks, JSON probes, dashboard loads,
// and SSE subscribers — and relies on -race (see `make race`) to flag
// unsynchronized access.
func TestScrapeWhileServingStress(t *testing.T) {
	s, reg, _ := newTestSampler(t, DefaultSLOs()...)
	srv := httptest.NewServer(s.DashHandler())
	defer srv.Close()

	const iters = 200
	var wg sync.WaitGroup
	start := make(chan struct{})

	// Writers: counters, gauges, histograms mutating mid-scrape.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		c := reg.Counter("pano_client_rebuffer_seconds_total", "w")
		g := reg.Gauge("pano_client_session_pspnr_db", "w")
		h := reg.Histogram("pano_client_tile_attempt_seconds", "w", []float64{0.1, 0.5, 1})
		for i := 0; i < iters; i++ {
			c.Add(0.01)
			g.Set(float64(30 + i%10))
			h.Observe(float64(i%7) / 10)
		}
	}()

	// The scraper: logical-time Steps as fast as they'll go.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < iters; i++ {
			s.Step(at(i))
		}
	}()

	// JSON probes and dashboard loads against the same state.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < iters/4; i++ {
				rec := httptest.NewRecorder()
				s.SLOHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slo", nil))
				if rec.Code != http.StatusOK {
					t.Errorf("slo probe = %d", rec.Code)
					return
				}
				rec = httptest.NewRecorder()
				s.DashHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/dash", nil))
				if rec.Code != http.StatusOK {
					t.Errorf("dash probe = %d", rec.Code)
					return
				}
			}
		}()
	}

	// A live SSE subscriber churning connect/disconnect.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 5; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"?stream=1", nil)
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			cancel()
		}
	}()

	close(start)
	wg.Wait()

	// The sampler is still coherent after the storm.
	if got := len(s.States()); got != len(DefaultSLOs()) {
		t.Errorf("States() = %d entries after stress, want %d", got, len(DefaultSLOs()))
	}
}
