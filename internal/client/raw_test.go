package client

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"pano/internal/mathx"
)

func rawTestPolicy() FetchPolicy {
	return FetchPolicy{
		MaxAttempts:    3,
		BaseBackoff:    time.Millisecond,
		MaxBackoff:     4 * time.Millisecond,
		AttemptTimeout: 2 * time.Second,
	}
}

// TestFetchRaw304: a conditional GET whose validator still matches
// comes back NotModified with no body — the revalidation fast path.
func TestFetchRaw304(t *testing.T) {
	const etag = `"cafe"`
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", etag)
		if r.Header.Get("If-None-Match") == etag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Write([]byte("payload"))
	}))
	defer ts.Close()
	c := New(ts.URL)

	res, err := c.FetchRaw(context.Background(), "/x", "", rawTestPolicy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.NotModified || string(res.Body) != "payload" || res.ETag != etag {
		t.Fatalf("unconditional fetch: %+v", res)
	}

	res, err = c.FetchRaw(context.Background(), "/x", etag, rawTestPolicy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.NotModified {
		t.Fatalf("matching validator should revalidate, got %+v", res)
	}
	if len(res.Body) != 0 {
		t.Errorf("304 carried %d body bytes", len(res.Body))
	}

	res, err = c.FetchRaw(context.Background(), "/x", `"stale"`, rawTestPolicy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.NotModified || string(res.Body) != "payload" {
		t.Fatalf("stale validator should refetch, got %+v", res)
	}
}

// TestFetchRawRetriesServerErrors: 5xx answers follow the backoff
// ladder until the origin recovers.
func TestFetchRawRetriesServerErrors(t *testing.T) {
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) <= 2 {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.Write([]byte("ok"))
	}))
	defer ts.Close()

	res, err := New(ts.URL).FetchRaw(context.Background(), "/y", "", rawTestPolicy(), mathx.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Body) != "ok" {
		t.Fatalf("body %q", res.Body)
	}
	if got := n.Load(); got != 3 {
		t.Errorf("origin saw %d requests, want 3", got)
	}
}

// TestFetchRawDefinitiveAnswers: 4xx is a result (cacheable by an edge
// tier), not an error, and is never retried.
func TestFetchRawDefinitiveAnswers(t *testing.T) {
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.Add(1)
		http.NotFound(w, r)
	}))
	defer ts.Close()

	res, err := New(ts.URL).FetchRaw(context.Background(), "/missing", "", rawTestPolicy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusNotFound {
		t.Fatalf("status %d, want 404", res.Status)
	}
	if got := n.Load(); got != 1 {
		t.Errorf("definitive 404 was retried: origin saw %d requests", got)
	}
}

// TestFetchRawExhaustsAttempts: a persistently failing origin yields an
// error after exactly MaxAttempts tries.
func TestFetchRawExhaustsAttempts(t *testing.T) {
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	_, err := New(ts.URL).FetchRaw(context.Background(), "/z", "", rawTestPolicy(), nil)
	if err == nil {
		t.Fatal("want error from persistent 503")
	}
	if got := n.Load(); got != int64(rawTestPolicy().MaxAttempts) {
		t.Errorf("origin saw %d requests, want %d", got, rawTestPolicy().MaxAttempts)
	}
}

// TestStalledAttemptEndsAtAttemptTimeout: an attempt against a server
// that never answers ends at the policy's AttemptTimeout — or at
// HTTP.Timeout where that is the shorter — and is classified a timeout,
// whatever http.Client the shared GET helper is handed.
func TestStalledAttemptEndsAtAttemptTimeout(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()
	defer close(release)

	pol := FetchPolicy{MaxAttempts: 1, AttemptTimeout: 60 * time.Millisecond}
	for name, hc := range map[string]*http.Client{
		"New's client":                    New(ts.URL).HTTP,
		"overridden, Timeout == 0":        {Transport: &http.Transport{}},
		"HTTP.Timeout inside the attempt": {Transport: &http.Transport{}, Timeout: 20 * time.Millisecond},
		"nil HTTP (http.DefaultClient)":   nil,
	} {
		c := &Client{BaseURL: ts.URL, HTTP: hc}
		t0 := time.Now()
		_, err := c.FetchRaw(context.Background(), "/stall", "", pol, nil)
		took := time.Since(t0)
		if err == nil {
			t.Fatalf("%s: a stalled server produced an answer", name)
		}
		if class := ErrorClass(err); class != "timeout" {
			t.Errorf("%s: classified %q (%v), want timeout", name, class, err)
		}
		floor := pol.AttemptTimeout
		if hc != nil && hc.Timeout > 0 && hc.Timeout < floor {
			floor = hc.Timeout // the client's own, shorter, timer is the bound there
		}
		if took < floor-5*time.Millisecond || took > 2*time.Second {
			t.Errorf("%s: attempt ended after %v, want about %v", name, took, floor)
		}
		if hc != nil {
			hc.CloseIdleConnections()
		}
	}
}

// TestReadBodySizedAndNot: a body whose length is on the wire is read
// into one buffer of that length; chunked and implausibly long ones go
// through io.ReadAll; a body that ends early is io.ErrUnexpectedEOF —
// "truncated" — on both paths; and a connection whose body was read
// sized goes back to the pool.
func TestReadBodySizedAndNot(t *testing.T) {
	payload := bytes.Repeat([]byte("tile"), 5000)
	var conns atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/sized":
			w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
			w.Write(payload)
		case "/empty":
			w.Header().Set("Content-Length", "0")
		case "/chunked":
			w.Write(payload[:8000])
			w.(http.Flusher).Flush()
			w.Write(payload[8000:])
		case "/short":
			w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
			w.Write(payload[:100])
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		case "/short-chunked":
			w.Write(payload[:100])
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		case "/huge":
			w.Header().Set("Content-Length", strconv.Itoa(maxSizedBody+1))
			w.Write(payload)
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler) // and then the connection drops
		}
	}))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	c := New(ts.URL)
	defer c.HTTP.CloseIdleConnections()
	once := FetchPolicy{MaxAttempts: 1}

	for i := 0; i < 20; i++ {
		for _, p := range []string{"/sized", "/chunked", "/empty"} {
			res, err := c.FetchRaw(context.Background(), p, "", once, nil)
			if err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			want := payload
			if p == "/empty" {
				want = nil
			}
			if !bytes.Equal(res.Body, want) {
				t.Fatalf("%s: %d body bytes, want %d", p, len(res.Body), len(want))
			}
			if p == "/sized" && cap(res.Body) != len(payload) {
				t.Fatalf("/sized: body buffer has capacity %d for %d bytes", cap(res.Body), len(payload))
			}
		}
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("60 sequential GETs used %d connections, want 1: a fully read body must free its connection", n)
	}
	for _, p := range []string{"/short", "/short-chunked", "/huge"} {
		_, err := c.FetchRaw(context.Background(), p, "", once, nil)
		if !errors.Is(err, io.ErrUnexpectedEOF) || ErrorClass(err) != "truncated" {
			t.Errorf("%s: %v (class %q), want io.ErrUnexpectedEOF, truncated", p, err, ErrorClass(err))
		}
	}
}

// A reset while a body is read is a tile's truncation — its answer
// arrived, its body did not — but FetchRaw reports the reset as it came:
// an HTTP/1.1 connection reset mid-body, and an HTTP/2 stream reset
// ("stream error"), are conn_reset on a raw fetch and truncated on a
// tile fetch.
func TestMidBodyResetClasses(t *testing.T) {
	ts := h2cServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "1000")
		w.Write(make([]byte, 500))
		w.(http.Flusher).Flush()
		if r.ProtoMajor == 2 {
			panic(http.ErrAbortHandler) // RST_STREAM, the connection stays up
		}
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		conn.(*net.TCPConn).SetLinger(0) // close with a reset
		conn.Close()
	}), nil)
	for _, c := range []*Client{New(ts.URL), NewH2C(ts.URL)} {
		_, err := c.FetchRaw(context.Background(), "/video/0/0/0.bin", "", FetchPolicy{MaxAttempts: 1}, nil)
		if got := ErrorClass(err); got != "conn_reset" {
			t.Errorf("FetchRaw: %v (class %q), want conn_reset", err, got)
		}
		_, err = c.FetchTile(context.Background(), 0, 0, 0)
		if got := ErrorClass(err); got != "truncated" {
			t.Errorf("FetchTile: %v (class %q), want truncated", err, got)
		}
		c.HTTP.CloseIdleConnections()
	}
}
