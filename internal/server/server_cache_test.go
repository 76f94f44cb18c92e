package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestManifestCacheValidators: the manifest response carries a strong
// ETag, an explicit max-age, and Last-Modified; If-None-Match with the
// current tag gets a bodyless 304, a stale tag the full body again.
func TestManifestCacheValidators(t *testing.T) {
	s, err := New(testManifest(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("manifest response has no ETag")
	}
	if got := resp.Header.Get("Cache-Control"); got != "max-age=60" {
		t.Errorf("Cache-Control = %q, want max-age=60", got)
	}
	if lm := resp.Header.Get("Last-Modified"); lm == "" {
		t.Error("manifest response has no Last-Modified")
	} else if _, err := time.Parse(http.TimeFormat, lm); err != nil {
		t.Errorf("Last-Modified %q not in HTTP date format: %v", lm, err)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/manifest.json", nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("matching If-None-Match: status %d, want 304", resp2.StatusCode)
	}
	if len(b2) != 0 {
		t.Errorf("304 carried a %d-byte body", len(b2))
	}
	if got := resp2.Header.Get("ETag"); got != etag {
		t.Errorf("304 ETag = %q, want %q", got, etag)
	}

	req.Header.Set("If-None-Match", `"deadbeefdeadbeef"`)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b3, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("stale If-None-Match: status %d, want 200", resp3.StatusCode)
	}
	if string(b3) != string(body) {
		t.Error("re-fetched manifest differs from the original")
	}
}

// TestTileCacheValidators: tiles get per-object ETags, revalidate with
// 304, and distinct objects get distinct tags.
func TestTileCacheValidators(t *testing.T) {
	s, err := New(testManifest(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path, etag string) *http.Response {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	r1 := get("/video/0/0/0.bin", "")
	b1, _ := io.ReadAll(r1.Body)
	r1.Body.Close()
	e1 := r1.Header.Get("ETag")
	if r1.StatusCode != http.StatusOK || e1 == "" {
		t.Fatalf("tile fetch: status %d etag %q", r1.StatusCode, e1)
	}

	r2 := get("/video/0/0/0.bin", e1)
	b2, _ := io.ReadAll(r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotModified || len(b2) != 0 {
		t.Fatalf("revalidation: status %d body %d bytes, want bodyless 304", r2.StatusCode, len(b2))
	}

	r3 := get("/video/0/0/1.bin", "")
	io.Copy(io.Discard, r3.Body)
	r3.Body.Close()
	if e3 := r3.Header.Get("ETag"); e3 == e1 {
		t.Errorf("different levels share ETag %q", e1)
	}

	// Wildcard matches any current representation.
	r4 := get("/video/0/0/0.bin", "*")
	r4.Body.Close()
	if r4.StatusCode != http.StatusNotModified {
		t.Errorf("If-None-Match: * got status %d, want 304", r4.StatusCode)
	}
	if len(b1) == 0 {
		t.Error("tile body empty")
	}
}
