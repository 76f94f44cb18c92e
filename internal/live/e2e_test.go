package live_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pano/internal/client"
	"pano/internal/live"
	"pano/internal/server"
	"pano/internal/store"
)

// waitBackend retries NewBackend until the pipeline has published its
// head (the catalog appears asynchronously).
func waitBackend(t *testing.T, s *store.Store) *store.Backend {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		b, err := store.NewBackend(s)
		if err == nil {
			return b
		}
		if time.Now().After(deadline) {
			t.Fatalf("catalog never appeared: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestLiveEndToEndHTTP runs the full path concurrently: a JIT pipeline
// publishing into a store, two stateless origins serving it over HTTP,
// and a real client streaming at the live edge against one of them. The
// session must follow the moving edge to the end with zero aborts, and
// the two origins must answer byte-identically afterwards.
func TestLiveEndToEndHTTP(t *testing.T) {
	v, trs := tinyFeed(t)
	dir := t.TempDir()
	pubStore, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := live.New(live.Config{
		Video: v, History: trs, Store: pubStore,
		CaptureInterval: 5 * time.Millisecond, Deadline: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	feedDone := make(chan error, 1)
	go func() {
		_, err := pipe.Run(context.Background())
		feedDone <- err
	}()

	origin := func() *httptest.Server {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.NewBackend(waitBackend(t, st))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return ts
	}
	ts1, ts2 := origin(), origin()

	c := client.New(ts1.URL)
	res, err := c.Stream(context.Background(), trs[0], client.StreamConfig{
		Live: client.LivePolicy{PollInterval: 2 * time.Millisecond, EdgeTimeout: 5 * time.Second},
	})
	if err != nil {
		t.Fatalf("live session aborted: %v", err)
	}
	if err := <-feedDone; err != nil {
		t.Fatalf("feed failed: %v", err)
	}
	final := pipe.Manifest()
	if len(res.Chunks) == 0 {
		t.Fatal("session streamed nothing")
	}
	if last := res.Chunks[len(res.Chunks)-1].Chunk; last != final.NumChunks()-1 {
		t.Fatalf("session ended at chunk %d, feed edge %d", last, final.NumChunks())
	}
	if res.Manifest.Live {
		t.Fatal("session never saw the end-of-stream manifest")
	}

	// Stateless origins: identical bytes and validators from both.
	get := func(ts *httptest.Server, path string) (string, []byte) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Header.Get("ETag"), body
	}
	e1, b1 := get(ts1, "/manifest.json")
	e2, b2 := get(ts2, "/manifest.json")
	if e1 != e2 || !bytes.Equal(b1, b2) {
		t.Fatal("origins disagree on the manifest")
	}
	for k := 0; k < final.NumChunks(); k++ {
		path := server.TilePath(k, 0, 1)
		te1, tb1 := get(ts1, path)
		te2, tb2 := get(ts2, path)
		if te1 != te2 || !bytes.Equal(tb1, tb2) {
			t.Fatalf("origins disagree on %s", path)
		}
	}
}

// TestLiveHTTPSemantics pins the wire behaviour of a store origin
// mid-feed: 404 for unpublished, 410 for retired, 304 on revalidation,
// and a clamped manifest max-age while live.
func TestLiveHTTPSemantics(t *testing.T) {
	v, trs := tinyFeed(t)
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, rep := runFeed(t, live.Config{
		Video: v, History: trs, Store: s,
		CaptureInterval: time.Millisecond, WindowChunks: 2,
		// The 30 s retention outlives the test: retired chunks leave the
		// catalog but their blobs survive, which is exactly the 410
		// regime.
	})
	if rep.Expired == 0 {
		t.Fatal("test needs a slid window")
	}
	srv, err := server.NewBackend(waitBackend(t, s))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status := func(path string, hdr http.Header) (int, http.Header) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		for k, vs := range hdr {
			req.Header[k] = vs
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, resp.Header
	}

	final := 0
	{
		resp, err := http.Get(ts.URL + "/manifest.json")
		if err != nil {
			t.Fatal(err)
		}
		etag := resp.Header.Get("ETag")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		// Post-feed the manifest is VOD again: full max-age.
		if cc := resp.Header.Get("Cache-Control"); cc != "max-age=60" {
			t.Fatalf("final manifest Cache-Control = %q, want max-age=60", cc)
		}
		if code, _ := status("/manifest.json", http.Header{"If-None-Match": {etag}}); code != http.StatusNotModified {
			t.Fatalf("manifest revalidation = %d, want 304", code)
		}
		m, err := client.New(ts.URL).FetchManifest(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		final = m.NumChunks()
	}

	if code, _ := status(server.TilePath(0, 0, 0), nil); code != http.StatusGone {
		t.Fatalf("retired tile = %d, want 410", code)
	}
	if code, _ := status(server.TilePath(final+3, 0, 0), nil); code != http.StatusNotFound {
		t.Fatalf("unpublished tile = %d, want 404", code)
	}
	inWindow := server.TilePath(final-1, 0, 0)
	code, hdr := status(inWindow, nil)
	if code != http.StatusOK {
		t.Fatalf("in-window tile = %d, want 200", code)
	}
	if code, _ := status(inWindow, http.Header{"If-None-Match": {hdr.Get("ETag")}}); code != http.StatusNotModified {
		t.Fatalf("tile revalidation = %d, want 304", code)
	}
}

// TestLiveManifestMaxAgeClamped: while the feed is live the manifest's
// freshness lifetime is clamped below the VOD default so edge caches
// keep up with the moving edge.
func TestLiveManifestMaxAgeClamped(t *testing.T) {
	v, trs := tinyFeed(t)
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := live.New(live.Config{
		Video: v, History: trs, Store: s, CaptureInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	feedDone := make(chan error, 1)
	go func() {
		_, err := pipe.Run(context.Background())
		feedDone <- err
	}()
	srv, err := server.NewBackend(waitBackend(t, s))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	// ChunkSec is 1s → live max-age is 500ms, rendered as max-age=0:
	// anything but the VOD 60 proves the clamp; 0 pins the exact value.
	if cc := resp.Header.Get("Cache-Control"); cc != "max-age=0" {
		t.Fatalf("live manifest Cache-Control = %q, want max-age=0", cc)
	}
	if err := <-feedDone; err != nil {
		t.Fatal(err)
	}
}
