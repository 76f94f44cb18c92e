package telemetry

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pano/internal/obs"
	"pano/internal/trace"
)

func metricsServer(t *testing.T, r *obs.Registry) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	Mount(mux, r, nil, nil, nil)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestParseScrapeTargets(t *testing.T) {
	ts, err := ParseScrapeTargets("edge0=http://127.0.0.1:8181, 127.0.0.1:8282/metrics ,origin=http://10.0.0.1:9090/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 3 {
		t.Fatalf("parsed %d targets, want 3", len(ts))
	}
	if ts[0].Instance != "edge0" || ts[0].URL != "http://127.0.0.1:8181" {
		t.Errorf("target 0 = %+v", ts[0])
	}
	if ts[1].Instance != "127.0.0.1:8282" {
		t.Errorf("target 1 instance = %q, want host:port default", ts[1].Instance)
	}
	if ts[2].Instance != "origin" {
		t.Errorf("target 2 = %+v", ts[2])
	}
	for _, bad := range []string{"", " , ", "a=b=://", "x=http://h:1,x=http://h:2"} {
		if _, err := ParseScrapeTargets(bad); err == nil {
			t.Errorf("no error for %q", bad)
		}
	}
}

func TestScraperRollup(t *testing.T) {
	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	for _, rc := range []struct {
		r *obs.Registry
		n float64
	}{{regA, 10}, {regB, 32}} {
		rc.r.Counter("pano_x_tiles_total", "tiles", obs.L("kind", "hit")).Add(rc.n)
		rc.r.Gauge("pano_edge_hit_ratio", "ratio").Set(rc.n / 100)
		rc.r.Gauge("pano_slo_state", "state", obs.L("slo", "rebuffer")).Set(rc.n / 10)
		rc.r.Gauge("pano_x_cache_bytes", "bytes").Set(rc.n * 1000)
		h := rc.r.Histogram("pano_x_seconds", "lat", obs.DefBuckets)
		h.Observe(rc.n / 100)
		h.Observe(3)
	}
	srvA, srvB := metricsServer(t, regA), metricsServer(t, regB)
	sc, err := NewScraper(ScraperConfig{
		Targets: []ScrapeTarget{{Instance: "a", URL: srvA.URL}, {Instance: "b", URL: srvB.URL}},
	})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1700000000, 0)
	out := sc.Collect(now)

	byKey := map[string]obs.SnapshotSeries{}
	for _, ss := range out {
		byKey[ss.Name+"|"+ss.Key] = ss
	}
	if s := byKey["pano_x_tiles_total|"+obs.SeriesKey(obs.L("kind", "hit"))]; s.Value != 42 {
		t.Errorf("counter rollup = %v, want 42", s.Value)
	}
	// Expected average computed with the same runtime float ops the
	// scraper uses (constant folding would be exact and mismatch).
	va, vb := 10.0/100, 32.0/100
	wantAvg := va + vb
	wantAvg /= 2
	if s := byKey["pano_edge_hit_ratio|"]; s.Value != wantAvg {
		t.Errorf("avg gauge rollup = %v, want %v", s.Value, wantAvg)
	}
	if s := byKey["pano_slo_state|"+obs.SeriesKey(obs.L("slo", "rebuffer"))]; s.Value != 3.2 {
		t.Errorf("max gauge rollup = %v, want 3.2", s.Value)
	}
	if s := byKey["pano_x_cache_bytes|"]; s.Value != 42000 {
		t.Errorf("sum gauge rollup = %v, want 42000", s.Value)
	}
	hs := byKey["pano_x_seconds|"]
	if hs.Count != 4 || hs.Sum != 0.10+3+0.32+3 {
		t.Errorf("histogram rollup count=%d sum=%v, want 4 / 6.42", hs.Count, hs.Sum)
	}
	var totalBuckets uint64
	for _, c := range hs.Counts {
		totalBuckets += c
	}
	if totalBuckets != 4 {
		t.Errorf("histogram rollup bucket total = %d, want 4", totalBuckets)
	}
	// Meta series present.
	if s := byKey["pano_federation_target_up|"+obs.SeriesKey(obs.L("instance", "a"))]; s.Value != 1 {
		t.Errorf("target_up{a} = %v, want 1", s.Value)
	}
	if s := byKey["pano_federation_targets|"]; s.Value != 2 {
		t.Errorf("targets = %v, want 2", s.Value)
	}
	if s := byKey["pano_federation_stale_targets|"]; s.Value != 0 {
		t.Errorf("stale = %v, want 0", s.Value)
	}

	// Per-instance view: relabelled, both instances present.
	inst := sc.InstanceSeries()
	seenInst := map[string]bool{}
	for _, ss := range inst {
		for _, l := range ss.Labels {
			if l.Key == "instance" {
				seenInst[l.Value] = true
			}
		}
	}
	if !seenInst["a"] || !seenInst["b"] {
		t.Errorf("instance view missing instances: %v", seenInst)
	}
}

func TestScraperStaleTargetFreezesSeries(t *testing.T) {
	reg := obs.NewRegistry()
	ct := reg.Counter("pano_x_total", "x")
	ct.Add(7)
	srv := metricsServer(t, reg)
	sc, err := NewScraper(ScraperConfig{
		Targets: []ScrapeTarget{{Instance: "a", URL: srv.URL}},
		Timeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1700000000, 0)
	sc.Collect(now)

	srv.Close() // the instance dies
	out := sc.Collect(now.Add(time.Second))
	byName := map[string]obs.SnapshotSeries{}
	for _, ss := range out {
		byName[ss.Name] = ss
	}
	// Frozen, not zeroed: the rollup still carries the last-good value…
	if s := byName["pano_x_total"]; s.Value != 7 {
		t.Errorf("dead instance zeroed the rollup: pano_x_total = %v, want 7", s.Value)
	}
	// …and staleness is explicit.
	if s := byName["pano_federation_target_up"]; s.Value != 0 {
		t.Errorf("target_up = %v, want 0 after death", s.Value)
	}
	if s := byName["pano_federation_stale_targets"]; s.Value != 1 {
		t.Errorf("stale_targets = %v, want 1", s.Value)
	}
	if s := byName["pano_federation_scrape_errors_total"]; s.Value != 1 {
		t.Errorf("scrape_errors_total = %v, want 1", s.Value)
	}
	st := sc.Targets()
	if len(st) != 1 || st[0].Up || !st[0].EverUp || st[0].LastErr == "" {
		t.Errorf("target status = %+v", st)
	}
}

func TestScraperUnmergeableHistograms(t *testing.T) {
	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	regA.Histogram("pano_x_seconds", "lat", []float64{0, 1, 2}).Observe(1)
	regB.Histogram("pano_x_seconds", "lat", []float64{0, 2, 4}).Observe(1)
	regA.Counter("pano_ok_total", "fine").Add(1)
	regB.Counter("pano_ok_total", "fine").Add(2)
	srvA, srvB := metricsServer(t, regA), metricsServer(t, regB)
	sc, err := NewScraper(ScraperConfig{
		Targets: []ScrapeTarget{{Instance: "a", URL: srvA.URL}, {Instance: "b", URL: srvB.URL}},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sc.Collect(time.Unix(1700000000, 0))
	byName := map[string]obs.SnapshotSeries{}
	for _, ss := range out {
		byName[ss.Name] = ss
	}
	if _, ok := byName["pano_x_seconds"]; ok {
		t.Error("layout-conflicted histogram family leaked into the rollup")
	}
	if s := byName["pano_ok_total"]; s.Value != 3 {
		t.Errorf("unrelated counter = %v, want 3", s.Value)
	}
	if s := byName["pano_federation_unmergeable_families"]; s.Value != 1 {
		t.Errorf("unmergeable_families = %v, want 1", s.Value)
	}
	// The conflicted family is still visible per-instance.
	found := 0
	for _, ss := range sc.InstanceSeries() {
		if ss.Name == "pano_x_seconds" {
			found++
		}
	}
	if found != 2 {
		t.Errorf("per-instance view has %d pano_x_seconds series, want 2", found)
	}
}

// TestScraperFedSampler checks the plane's sampler stores exactly the
// rollup (one series per family — the double-count hazard federation
// must avoid).
func TestScraperFedSampler(t *testing.T) {
	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	ctA := regA.Counter("pano_client_rebuffer_seconds_total", "stall")
	ctB := regB.Counter("pano_client_rebuffer_seconds_total", "stall")
	srvA, srvB := metricsServer(t, regA), metricsServer(t, regB)
	sc, smp, _, err := NewPlane(ScraperConfig{
		Targets:  []ScrapeTarget{{Instance: "a", URL: srvA.URL}, {Instance: "b", URL: srvB.URL}},
		Interval: time.Second,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	own := sc.self
	now := time.Unix(1700000000, 0)
	for i := 0; i < 5; i++ {
		ctA.Add(1)
		ctB.Add(2)
		smp.Step(now)
		now = now.Add(time.Second)
	}
	fam := smp.Store().Family("pano_client_rebuffer_seconds_total")
	if len(fam) != 1 {
		t.Fatalf("store holds %d rebuffer series, want 1 (rollup only)", len(fam))
	}
	last, ok := fam[0].Last()
	if !ok || last.V != 15 {
		t.Errorf("rollup rebuffer = %v, want 15", last.V)
	}
	// Sampler's own registry stayed out of the SLO store.
	if own.CounterValue("pano_telemetry_scrapes_total") == 0 {
		t.Error("sampler self-metrics missing from its registry")
	}
	if got := smp.Store().Family("pano_telemetry_scrapes_total"); len(got) != 0 {
		t.Error("sampler self-metrics leaked into the federated store")
	}
	// The cluster dashboard shows both rollup and per-instance panels.
	snap := smp.dashSnapshot(now)
	var roll, perInst int
	for _, ds := range snap.Series {
		if ds.Name != "pano_client_rebuffer_seconds_total" {
			continue
		}
		if strings.Contains(ds.Labels, "instance=") {
			perInst++
		} else {
			roll++
		}
	}
	if roll != 1 || perInst != 2 {
		t.Errorf("dash panels: %d rollup + %d per-instance, want 1 + 2", roll, perInst)
	}
}

func TestScraperMetricsHandlerRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("pano_x_total", "x", obs.L("edge", "a")).Add(5)
	reg.Histogram("pano_x_seconds", "lat", obs.DefBuckets).Observe(0.2)
	srv := metricsServer(t, reg)
	sc, _, h, err := NewPlane(ScraperConfig{Targets: []ScrapeTarget{{Instance: "a", URL: srv.URL}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc.Collect(time.Unix(1700000000, 0))

	fed := httptest.NewServer(h)
	defer fed.Close()
	metricsURL := fed.URL + "/metrics"
	resp, err := http.Get(metricsURL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	series, err := obs.ParsePrometheus(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("federated exposition does not reparse: %v\n%s", err, body)
	}
	var rollup, instA, instSelf bool
	for _, ss := range series {
		key := ss.Key
		switch ss.Name {
		case "pano_x_total":
			if strings.Contains(key, "instance") {
				instA = true
			} else if ss.Value == 5 {
				rollup = true
			}
		case "pano_build_info":
			if strings.Contains(key, "obsd") {
				instSelf = true
			}
		}
	}
	if !rollup || !instA || !instSelf {
		t.Errorf("federated exposition missing views: rollup=%v instance=%v self=%v\n%s",
			rollup, instA, instSelf, body)
	}

	// HEAD carries headers, no body; POST is rejected.
	if resp, err := headReq(metricsURL); err != nil || resp.code != http.StatusOK || resp.body != 0 {
		t.Errorf("HEAD /metrics: %+v err=%v", resp, err)
	}
	if pr, err := http.Post(metricsURL, "text/plain", nil); err == nil {
		if pr.StatusCode != http.StatusMethodNotAllowed || pr.Header.Get("Allow") != "GET, HEAD" {
			t.Errorf("POST /metrics: %d Allow=%q", pr.StatusCode, pr.Header.Get("Allow"))
		}
		pr.Body.Close()
	}
}

type headResp struct {
	code int
	body int
}

func headReq(url string) (headResp, error) {
	resp, err := http.Head(url)
	if err != nil {
		return headResp{}, err
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return headResp{code: resp.StatusCode, body: len(b)}, nil
}

func TestScraperTraceAssembly(t *testing.T) {
	// Two processes share one trace via a traceparent hop.
	trA := trace.New(trace.Config{Seed: 0x100})
	trB := trace.New(trace.Config{Seed: 0x200})
	ctx, root := trA.Start(context.Background(), "stream", trace.A("component", "client"))
	_, child := trA.Start(ctx, "tile_fetch")
	tid, parent, _, _ := trace.ParseTraceparent(child.Traceparent())
	_, remote := trB.StartRemote(context.Background(), "http_request", tid, parent,
		trace.A("component", "server"))
	remote.End()
	child.End()
	root.End()

	mk := func(tr *trace.Tracer) *httptest.Server {
		mux := http.NewServeMux()
		Mount(mux, obs.NewRegistry(), nil, tr, nil)
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		return srv
	}
	srvA, srvB := mk(trA), mk(trB)
	// A third target without a tracer endpoint must be skipped quietly.
	srvC := metricsServer(t, obs.NewRegistry())
	sc, _, h, err := NewPlane(ScraperConfig{Targets: []ScrapeTarget{
		{Instance: "client", URL: srvA.URL},
		{Instance: "origin", URL: srvB.URL},
		{Instance: "bare", URL: srvC.URL},
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	assembled := sc.AssembleTraces()
	if len(assembled) != 1 {
		t.Fatalf("assembled %d traces, want 1", len(assembled))
	}
	if ps := assembled[0].Processes(); len(ps) != 2 {
		t.Errorf("processes = %v, want client+origin", ps)
	}
	if len(assembled[0].Spans) != 3 {
		t.Errorf("spans = %d, want 3", len(assembled[0].Spans))
	}

	th := httptest.NewServer(h)
	defer th.Close()
	resp, err := http.Get(th.URL + "/debug/traces?trace=" + root.TraceHex())
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if n, err := trace.ValidateChromeTrace(body); err != nil || n != 3 {
		t.Errorf("assembled handler output: %d spans err=%v", n, err)
	}
	if resp, err := http.Get(th.URL + "/debug/traces?trace=00000000000000000000000000000001"); err == nil {
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown trace id: status %d, want 404", resp.StatusCode)
		}
		resp.Body.Close()
	}
}
