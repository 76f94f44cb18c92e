package client

import (
	"context"
	"go/build"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"pano/internal/obs"
	"pano/internal/server"
)

// streamWithObs runs a session with observability attached and returns
// the result, error, registry, and event log.
func streamWithObs(t *testing.T, url string, ctx context.Context, cfg StreamConfig) (*StreamResult, error, *obs.Registry, *obs.EventLog) {
	t.Helper()
	reg := obs.NewRegistry()
	el := obs.NewEventLog(nil, 256)
	cfg.Obs = reg
	cfg.Log = el
	res, err := New(url).Stream(ctx, fixture(t).tr, cfg)
	return res, err, reg, el
}

func summaryStatus(t *testing.T, el *obs.EventLog) string {
	t.Helper()
	e, ok := el.Last("session_summary")
	if !ok {
		t.Fatal("no session_summary event fired")
	}
	return e.Str("status")
}

func TestStreamRecordsQoEMetrics(t *testing.T) {
	ts := testServer(t)
	res, err, reg, el := streamWithObs(t, ts.URL, context.Background(), StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.CounterValue("pano_client_chunks_total"); got != float64(len(res.Chunks)) {
		t.Errorf("chunks counter %v, result has %d", got, len(res.Chunks))
	}
	if got := reg.CounterValue("pano_client_bytes_total"); got != float64(res.TotalBytes) {
		t.Errorf("bytes counter %v, result has %d", got, res.TotalBytes)
	}
	if got := reg.HistogramCount("pano_client_est_pspnr_db"); got != uint64(len(res.Chunks)) {
		t.Errorf("est pspnr observations %d, want %d", got, len(res.Chunks))
	}
	if res.MeanEstPSPNR() <= 0 {
		t.Errorf("MeanEstPSPNR = %v", res.MeanEstPSPNR())
	}
	if mos := res.MOS(); mos < 1 || mos > 5 {
		t.Errorf("MOS = %d", mos)
	}
	if got := reg.CounterValue("pano_client_sessions_total", obs.L("status", "ok")); got != 1 {
		t.Errorf("sessions ok counter = %v", got)
	}
	// The loop timed its MPC decisions.
	if got := reg.HistogramCount("pano_abr_decision_seconds"); got == 0 {
		t.Error("no ABR decision latency recorded")
	}
	if got := reg.HistogramCount("pano_planner_plan_seconds", obs.L("planner", "pano")); got != uint64(len(res.Chunks)) {
		t.Errorf("planner latency observations %d, want %d", got, len(res.Chunks))
	}
	if status := summaryStatus(t, el); status != "ok" {
		t.Errorf("summary status %q, want ok", status)
	}
	e, _ := el.Last("session_summary")
	if got, ok := e.Attr("chunks_streamed").(int64); !ok || int(got) != len(res.Chunks) {
		t.Errorf("summary chunks_streamed attr = %v", e.Attr("chunks_streamed"))
	}
}

func TestStreamManifestFailureFiresSummary(t *testing.T) {
	// A server that refuses the manifest entirely.
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer broken.Close()

	_, err, reg, el := streamWithObs(t, broken.URL, context.Background(), StreamConfig{})
	if err == nil {
		t.Fatal("manifest failure should error")
	}
	if status := summaryStatus(t, el); status != "manifest_error" {
		t.Errorf("summary status %q, want manifest_error", status)
	}
	if got := reg.CounterValue("pano_client_sessions_total", obs.L("status", "manifest_error")); got != 1 {
		t.Errorf("sessions manifest_error counter = %v", got)
	}
	e, _ := el.Last("session_summary")
	if e.Str("error") == "" {
		t.Error("summary should carry the error")
	}
}

func TestStreamMidStreamTileFailureFiresSummary(t *testing.T) {
	s, err := server.New(fixture(t).man)
	if err != nil {
		t.Fatal(err)
	}
	inner := s.Handler()
	var tileReqs atomic.Int64
	// Serve the manifest and the first few tiles, then fail every tile
	// request. The resilient pipeline must NOT abort: the ladder retries,
	// degrades, and finally skips, and the session runs to completion
	// with a tile_skipped summary.
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/video/") && tileReqs.Add(1) > 3 {
			http.Error(w, "disk on fire", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	res, err, reg, el := streamWithObs(t, flaky.URL, context.Background(), StreamConfig{
		MaxChunks: 2,
		Fetch:     fastFetchPolicy(),
	})
	if err != nil {
		t.Fatalf("mid-stream tile failure must not abort the session: %v", err)
	}
	if res.SkippedTiles == 0 {
		t.Error("permanently failing tiles should be skipped")
	}
	if res.TotalRetries == 0 {
		t.Error("failing tiles should have recorded retries")
	}
	if status := summaryStatus(t, el); status != "tile_skipped" {
		t.Errorf("summary status %q, want tile_skipped", status)
	}
	if got := reg.CounterValue("pano_client_sessions_total", obs.L("status", "tile_skipped")); got != 1 {
		t.Errorf("sessions tile_skipped counter = %v", got)
	}
	if got := reg.CounterValue("pano_client_tiles_skipped_total"); got != float64(res.SkippedTiles) {
		t.Errorf("skipped counter %v, result has %d", got, res.SkippedTiles)
	}
}

func TestStreamCancellationFiresSummary(t *testing.T) {
	ts := testServer(t)

	// Cancelled before the manifest fetch.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err, _, el := streamWithObs(t, ts.URL, ctx, StreamConfig{})
	if err == nil {
		t.Fatal("cancelled context should error")
	}
	if status := summaryStatus(t, el); status != "canceled" {
		t.Errorf("pre-manifest cancel summary status %q, want canceled", status)
	}

	// Cancelled mid-stream: let the manifest through, then cancel on
	// the first tile request.
	ctx2, cancel2 := context.WithCancel(context.Background())
	s, err := server.New(fixture(t).man)
	if err != nil {
		t.Fatal(err)
	}
	inner := s.Handler()
	tricky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/video/") {
			cancel2()
		}
		inner.ServeHTTP(w, r)
	}))
	defer tricky.Close()
	_, err, reg, el2 := streamWithObs(t, tricky.URL, ctx2, StreamConfig{})
	if err == nil {
		t.Fatal("mid-stream cancel should error")
	}
	if status := summaryStatus(t, el2); status != "canceled" {
		t.Errorf("mid-stream cancel summary status %q, want canceled", status)
	}
	if got := reg.CounterValue("pano_client_sessions_total", obs.L("status", "canceled")); got != 1 {
		t.Errorf("sessions canceled counter = %v", got)
	}
}

// TestStreamEstimateNeedsNoWatcher: the session's PSPNR estimate is read
// off its chunks, so an unwatched session reports the one a watched
// session does (a cold-start chunk, planned alike over any link), and a
// watched session's pano_client_session_pspnr_db is that estimate to
// the bit. That watching costs a bare session nothing is held by
// BenchmarkRunSessionVirtual's allocation rows.
func TestStreamEstimateNeedsNoWatcher(t *testing.T) {
	ts := testServer(t)
	bare, err := New(ts.URL).Stream(context.Background(), fixture(t).tr, StreamConfig{MaxChunks: 1})
	if err != nil {
		t.Fatal(err)
	}
	watched, err, reg, _ := streamWithObs(t, ts.URL, context.Background(), StreamConfig{MaxChunks: 1})
	if err != nil {
		t.Fatal(err)
	}
	est := bare.MeanEstPSPNR()
	if est <= 0 || watched.MeanEstPSPNR() != est {
		t.Errorf("MeanEstPSPNR: unwatched %v, watched %v", est, watched.MeanEstPSPNR())
	}
	if got := reg.GaugeValue("pano_client_session_pspnr_db"); got != watched.MeanEstPSPNR() {
		t.Errorf("pano_client_session_pspnr_db %v, MeanEstPSPNR %v", got, watched.MeanEstPSPNR())
	}
}

// TestDecisionPackagesDoNotWatch: the session's watcher times the
// chunk-level decision and the tile assignment, so the packages that
// make them (their tests included) import neither the metrics nor the
// tracing layer.
func TestDecisionPackagesDoNotWatch(t *testing.T) {
	for _, dir := range []string{"../abr", "../player"} {
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range slices.Concat(pkg.Imports, pkg.TestImports, pkg.XTestImports) {
			if imp == "pano/internal/obs" || imp == "pano/internal/trace" {
				t.Errorf("%s imports %s", dir, imp)
			}
		}
	}
}
