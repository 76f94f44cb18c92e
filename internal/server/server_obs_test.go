package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"pano/internal/obs"
)

func obsServer(t *testing.T) (*httptest.Server, *obs.Registry, *obs.EventLog) {
	t.Helper()
	reg := obs.NewRegistry()
	el := obs.NewEventLog(nil, 64)
	s, err := New(testManifest(t), WithObs(reg), WithEventLog(el))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, reg, el
}

func TestMetricsEndpointExposition(t *testing.T) {
	ts, _, _ := obsServer(t)

	// Generate traffic on every endpoint.
	for _, path := range []string{"/manifest.json", "/video/0/0/0.bin", "/video/0/1/2.bin", "/nope"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE pano_http_requests_total counter",
		`pano_http_requests_total{code="200",endpoint="manifest",method="GET"} 1`,
		`pano_http_requests_total{code="200",endpoint="tile",method="GET"} 2`,
		"# TYPE pano_tile_bytes_total counter",
		"# TYPE pano_http_request_seconds histogram",
		`pano_http_request_seconds_bucket{endpoint="tile",le="+Inf"} 2`,
		`pano_http_request_seconds_count{endpoint="tile"} 2`,
		"pano_video_chunks",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q\n--- exposition ---\n%s", want, out)
		}
	}
}

func TestTileBytesCounterMatchesBody(t *testing.T) {
	ts, reg, _ := obsServer(t)
	resp, err := http.Get(ts.URL + "/video/0/0/0.bin")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := reg.CounterValue("pano_tile_bytes_total"); got != float64(len(body)) {
		t.Errorf("pano_tile_bytes_total = %v, body was %d bytes", got, len(body))
	}
	// Errors must not count media bytes.
	resp, err = http.Get(ts.URL + "/video/99/0/0.bin")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := reg.CounterValue("pano_tile_bytes_total"); got != float64(len(body)) {
		t.Errorf("404 added to pano_tile_bytes_total: %v", got)
	}
	if got := reg.CounterValue("pano_http_requests_total",
		obs.L("endpoint", "tile"), obs.L("method", "GET"), obs.L("code", "404")); got != 1 {
		t.Errorf("404 counter = %v", got)
	}
}

func TestRequestEventLogged(t *testing.T) {
	ts, _, el := obsServer(t)
	resp, err := http.Get(ts.URL + "/manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	// The handler logs after it has written the response, so the client
	// can hold the whole body before the event exists: wait for it.
	e, ok := el.Last("http_request")
	for deadline := time.Now().Add(2 * time.Second); !ok && time.Now().Before(deadline); e, ok = el.Last("http_request") {
		time.Sleep(time.Millisecond)
	}
	if !ok {
		t.Fatal("no http_request event captured")
	}
	if e.Str("endpoint") != "manifest" || e.Attr("code").(int64) != 200 {
		t.Errorf("event = %+v", e.Attrs)
	}
}

// TestTileMethodAndContentLength pins the handleTile contract: non-GET/
// HEAD is 405 (with Allow) on every endpoint, and tile responses carry
// an exact Content-Length.
func TestTileMethodAndContentLength(t *testing.T) {
	ts, _, _ := obsServer(t)

	for _, path := range []string{"/video/0/0/0.bin", "/manifest.json", "/manifest.mpd"} {
		resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader("x"))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "GET") {
			t.Errorf("POST %s Allow header = %q", path, allow)
		}
	}

	resp, err := http.Get(ts.URL + "/video/0/0/0.bin")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	cl, err := strconv.Atoi(resp.Header.Get("Content-Length"))
	if err != nil || cl != len(body) {
		t.Errorf("Content-Length %q, body %d bytes", resp.Header.Get("Content-Length"), len(body))
	}

	// HEAD advertises the same length without a body.
	hresp, err := http.Head(ts.URL + "/video/0/0/0.bin")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hcl := hresp.Header.Get("Content-Length"); hcl != resp.Header.Get("Content-Length") {
		t.Errorf("HEAD Content-Length %q != GET %q", hcl, resp.Header.Get("Content-Length"))
	}
}

func TestMetricsAbsentWithoutObs(t *testing.T) {
	s, err := New(testManifest(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/metrics without WithObs = %d, want 404", resp.StatusCode)
	}
}

// failingWriter errors on the first body write, emulating a client that
// vanished mid-response.
type failingWriter struct {
	h    http.Header
	code int
}

func (w *failingWriter) Header() http.Header {
	if w.h == nil {
		w.h = http.Header{}
	}
	return w.h
}
func (w *failingWriter) WriteHeader(code int)      { w.code = code }
func (w *failingWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

func TestWriteErrorsCountedAndLogged(t *testing.T) {
	reg := obs.NewRegistry()
	el := obs.NewEventLog(nil, 64)
	s, err := New(testManifest(t), WithObs(reg), WithEventLog(el))
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	for _, tc := range []struct {
		path, endpoint string
	}{
		{"/manifest.json", "manifest"},
		{"/manifest.mpd", "mpd"},
		{"/video/0/0/0.bin", "tile"},
	} {
		h.ServeHTTP(&failingWriter{}, httptest.NewRequest(http.MethodGet, tc.path, nil))
		if got := reg.CounterValue("pano_http_write_errors_total", obs.L("endpoint", tc.endpoint)); got != 1 {
			t.Errorf("%s: write-error counter = %v, want 1", tc.endpoint, got)
		}
	}
	if e, ok := el.Last("http_write_error"); !ok || e.Str("error") == "" {
		t.Error("no http_write_error event with an error recorded")
	}

	// Healthy traffic never touches the counter.
	reg2 := obs.NewRegistry()
	s2, err := New(testManifest(t), WithObs(reg2))
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s2.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/manifest.json", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("manifest status %d", rec.Code)
	}
	if got := reg2.CounterValue("pano_http_write_errors_total", obs.L("endpoint", "manifest")); got != 0 {
		t.Errorf("healthy write counted as error: %v", got)
	}
}
