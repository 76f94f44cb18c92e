package telemetry

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pano/internal/obs"
	"pano/internal/trace"
)

func TestDebugTracesHandler(t *testing.T) {
	tr := trace.New(trace.Config{Seed: 14})
	_, root := tr.Start(context.Background(), "session")
	root.End()

	mux := http.NewServeMux()
	Mount(mux, nil, nil, tr, nil)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + "/debug/traces" + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		b.ReadFrom(resp.Body)
		return resp.StatusCode, b.String()
	}
	if code, body := get(""); code != http.StatusOK {
		t.Errorf("GET = %d (%s)", code, body)
	} else if _, err := trace.ValidateChromeTrace([]byte(body)); err != nil {
		t.Errorf("handler output invalid: %v", err)
	}
	if code, _ := get("?trace=" + root.TraceHex()); code != http.StatusOK {
		t.Errorf("GET ?trace= = %d", code)
	}
	for _, bad := range []string{"zz", strings.Repeat("a", 34), strings.Repeat("a", 31)} {
		if code, _ := get("?trace=" + bad); code != http.StatusBadRequest {
			t.Errorf("bad id %q = %d, want 400", bad, code)
		}
	}
	if code, _ := get("?trace=" + strings.Repeat("a", 32)); code != http.StatusNotFound {
		t.Errorf("unknown id = %d, want 404", code)
	}
	resp, err := http.Post(ts.URL+"/debug/traces", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") == "" {
		t.Errorf("POST = %d Allow=%q, want 405 with Allow", resp.StatusCode, resp.Header.Get("Allow"))
	}
}

// TestMetricsEndpointIsTheExposition: a process's /metrics serves the
// bytes obs's exposition golden pins, with the 0.0.4 content type, and
// HEAD carries the headers without a body.
func TestMetricsEndpointIsTheExposition(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("pano_x_total", "x", obs.L("edge", `a"b`)).IncExemplar("abc")
	reg.Histogram("pano_x_seconds", "lat", obs.DefBuckets).ObserveExemplar(0.2, "def")
	mux := http.NewServeMux()
	Mount(mux, reg, nil, nil, nil)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var want bytes.Buffer
	if err := reg.WritePrometheus(&want); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || rec.Body.String() != want.String() {
		t.Errorf("GET /metrics = %d:\n%s\nwant:\n%s", rec.Code, rec.Body, want.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	head := httptest.NewRecorder()
	mux.ServeHTTP(head, httptest.NewRequest(http.MethodHead, "/metrics", nil))
	if head.Code != http.StatusOK || head.Body.Len() != 0 || head.Header().Get("Content-Type") == "" {
		t.Errorf("HEAD /metrics = %d, %d body bytes, Content-Type %q", head.Code, head.Body.Len(), head.Header().Get("Content-Type"))
	}
}
