package client

import (
	"context"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"pano/internal/chaos"
	"pano/internal/server"
	"pano/internal/trace"
)

// tracedChaosServer builds the acceptance topology: trace middleware
// OUTSIDE the chaos injector, so injected faults annotate the handler
// spans they corrupt.
func tracedChaosServer(t *testing.T, tracer *trace.Tracer, spec string) *httptest.Server {
	t.Helper()
	s, err := server.New(fixture(t).man, server.WithTracer(tracer))
	if err != nil {
		t.Fatal(err)
	}
	var h = s.Handler()
	if spec != "" {
		prof, err := chaos.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		h = chaos.New(prof).Wrap(h)
	}
	ts := h2cServer(t, trace.Middleware(tracer, h), nil)
	return ts
}

func TestStreamTraceStitchesAcrossRetries(t *testing.T) {
	tracer := trace.New(trace.Config{Seed: 3})
	ts := tracedChaosServer(t, tracer, "seed=7,tile-error=0.25")

	res, err := New(ts.URL).Stream(context.Background(), fixture(t).tr, StreamConfig{
		Fetch: fastFetchPolicy(),
		Trace: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID == "" {
		t.Fatal("traced session reported no trace ID")
	}
	if res.TotalRetries == 0 {
		t.Fatal("chaos injected no retries; the stitching assertions below are vacuous")
	}

	var td *trace.TraceData
	for _, tr := range tracer.Traces() {
		if tr.ID.String() == res.TraceID {
			td = tr
		}
	}
	if td == nil {
		t.Fatalf("trace %s not in the store", res.TraceID)
	}
	root := td.Root()
	if root == nil || root.Name != "session" {
		t.Fatalf("trace root = %+v, want session span", root)
	}
	if got := len(td.Find("chunk")); got != len(res.Chunks) {
		t.Errorf("chunk spans = %d, want %d", got, len(res.Chunks))
	}

	// Every server handler span must stitch into THIS trace, parented to
	// the client span whose request it served: the session span for the
	// manifest, the chunk's fetch span for a turn's GET (a tile's first
	// attempt), an attempt span for every later try.
	byID := map[trace.SpanID]*trace.SpanData{}
	for i := range td.Spans {
		byID[td.Spans[i].ID] = &td.Spans[i]
	}
	reqs := td.Find("http_request")
	if len(reqs) == 0 {
		t.Fatal("no server spans stitched into the client trace")
	}
	// A tile opens a tile_fetch span only when its first attempt fails,
	// one per (fetch span, tile), so the turn GET a fault hit names it.
	type tileKey struct {
		fetch trace.SpanID
		tile  int
	}
	tileSpans := map[tileKey]*trace.SpanData{}
	var tileRetries int
	for _, sd := range td.Find("tile_fetch") {
		key := tileKey{sd.Parent, sd.Attr("tile").(int)}
		if p := byID[sd.Parent]; p == nil || p.Name != "fetch" {
			t.Errorf("tile_fetch span's parent is %+v, want a fetch span", p)
		}
		if tileSpans[key] != nil {
			t.Errorf("tile %d has two tile_fetch spans under one fetch span", key.tile)
		}
		tileSpans[key] = sd
		r := sd.Attr("retries").(int)
		if r < 1 {
			t.Errorf("tile_fetch span for tile %d records %d retries, want >= 1", key.tile, r)
		}
		tileRetries += r
	}
	// So the tile_fetch spans are exactly the tiles that retried.
	if tileRetries != res.TotalRetries {
		t.Errorf("tile_fetch spans record %d retries, the session %d", tileRetries, res.TotalRetries)
	}
	// Every chaos fault maps to exactly one client record of its class:
	// the attempt span that sent the request, or — for a turn GET — the
	// first-attempt class of its tile's tile_fetch span.
	claimed := map[*trace.SpanData]bool{}
	var chaosFaults int
	for _, sd := range reqs {
		parent, ok := byID[sd.Parent]
		if !ok {
			t.Fatalf("server span %s parented to unknown span %s", sd.ID, sd.Parent)
		}
		if parent.Name != "attempt" && parent.Name != "fetch" && parent.Name != "session" {
			t.Errorf("server span parented to %q span, want attempt, fetch or session", parent.Name)
		}
		if sd.Attr("chaos.error") == nil {
			continue
		}
		chaosFaults++
		var rec *trace.SpanData
		var class any
		switch parent.Name {
		case "attempt":
			rec, class = parent, parent.Err
		case "fetch":
			_, ti, _, err := server.ParseTilePath(sd.Attr("path").(string))
			if err != nil {
				t.Fatal(err)
			}
			if rec = tileSpans[tileKey{parent.ID, ti}]; rec == nil {
				t.Errorf("faulted turn GET %s: its tile opened no tile_fetch span", sd.Attr("path"))
				continue
			}
			class = rec.Attr("first_class")
		default:
			t.Errorf("chaos fault annotated a %q-parented span, want attempt or fetch", parent.Name)
			continue
		}
		if class != "http_5xx" {
			t.Errorf("fault on %s recorded as class %v, want http_5xx", sd.Attr("path"), class)
		}
		if claimed[rec] {
			t.Errorf("client record %s claimed by two faults", rec.ID)
		}
		claimed[rec] = true
	}
	if chaosFaults == 0 {
		t.Error("no handler span carries a chaos fault annotation")
	}
	if len(claimed) != chaosFaults {
		t.Errorf("%d client records for %d chaos faults", len(claimed), chaosFaults)
	}
	// Faults annotate handler spans and nothing else, so there are never
	// more fault marks than handler spans.
	var marked int
	for i := range td.Spans {
		for _, a := range td.Spans[i].Attrs {
			if strings.HasPrefix(a.Key, "chaos.") {
				if td.Spans[i].Name != "http_request" {
					t.Errorf("chaos annotation %s on a %q span, want http_request", a.Key, td.Spans[i].Name)
				}
				marked++
				break
			}
		}
	}
	if marked != chaosFaults || marked > len(reqs) {
		t.Errorf("%d spans carry a chaos annotation, %d chaos.error faults, %d handler spans",
			marked, chaosFaults, len(reqs))
	}
	// Retries recorded on spans agree with the session result: a retried
	// tile's first failure is on its tile_fetch span, every later try has
	// an attempt span, and only a skipped tile ends on a failure.
	want := res.TotalRetries - res.SkippedTiles
	if got := len(td.Find("attempt")); got != want {
		t.Errorf("attempt spans = %d, want %d (%d retries, %d skipped)",
			got, want, res.TotalRetries, res.SkippedTiles)
	}
}

// Every request of a turn carries the chunk's fetch span: over h2c, the
// server records one handler span per planned GET, parented to that
// chunk's fetch span, and one for the manifest, parented to the session.
func TestTurnRequestsCarryTheirFetchSpan(t *testing.T) {
	tracer := trace.New(trace.Config{Seed: 11})
	ts := tracedChaosServer(t, tracer, "")
	res, err := NewH2C(ts.URL).Stream(context.Background(), fixture(t).tr, StreamConfig{
		Fetch: fastFetchPolicy(), Trace: tracer, MaxChunks: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var td *trace.TraceData
	for _, tr := range tracer.Traces() {
		if tr.ID.String() == res.TraceID {
			td = tr
		}
	}
	if td == nil {
		t.Fatalf("trace %s not in the store", res.TraceID)
	}
	served := map[trace.SpanID][]string{}
	for _, sd := range td.Find("http_request") {
		served[sd.Parent] = append(served[sd.Parent], sd.Attr("path").(string))
	}
	fetches := td.Find("fetch")
	if len(fetches) != len(res.Chunks) {
		t.Fatalf("%d fetch spans, %d chunks", len(fetches), len(res.Chunks))
	}
	for i, f := range fetches {
		cr := res.Chunks[i]
		var want []string
		for ti, l := range cr.Planned {
			want = append(want, server.TilePath(cr.Chunk, ti, l))
		}
		got := served[f.ID]
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("chunk %d's fetch span parents handler spans %v, want its planned GETs %v", cr.Chunk, got, want)
		}
	}
	if root := td.Root(); !slices.Equal(served[root.ID], []string{server.ManifestPath}) {
		t.Errorf("session parents handler spans %v, want the manifest's", served[root.ID])
	}
	if n := len(td.Find("tile_fetch")) + len(td.Find("attempt")); n != 0 {
		t.Errorf("a fault-free session opened %d tile_fetch and attempt spans, want 0", n)
	}
}

func TestStreamTraceConcurrentSessions(t *testing.T) {
	tracer := trace.New(trace.Config{Seed: 5, MaxTraces: 16})
	ts := tracedChaosServer(t, tracer, "seed=7,tile-error=0.1")

	const n = 4
	var wg sync.WaitGroup
	results := make([]*StreamResult, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pol := fastFetchPolicy()
			pol.Seed = uint64(i + 1)
			results[i], errs[i] = New(ts.URL).Stream(context.Background(), fixture(t).tr,
				StreamConfig{MaxChunks: 2, Fetch: pol, Trace: tracer})
		}(i)
	}
	wg.Wait()

	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		id := results[i].TraceID
		if id == "" || seen[id] {
			t.Fatalf("session %d trace ID %q (empty or duplicate)", i, id)
		}
		seen[id] = true
	}
	// All four sessions finished as distinct, complete traces.
	var found int
	for _, td := range tracer.Traces() {
		if seen[td.ID.String()] {
			found++
			if td.Root() == nil {
				t.Errorf("trace %s has no root span", td.ID)
			}
		}
	}
	if found != n {
		t.Errorf("complete traces = %d, want %d", found, n)
	}
}

// A nil tracer must not perturb streaming: same level decisions, same
// bytes, byte for byte, as a traced session over the same server.
func TestNilTracerByteIdentical(t *testing.T) {
	f := fixture(t)
	s, err := server.New(f.man)
	if err != nil {
		t.Fatal(err)
	}
	ts := h2cServer(t, s.Handler(), nil)

	// Cap the controller's bandwidth input so decisions don't depend on
	// noisy loopback throughput (same trick, and the same one h2c
	// connection per session, as the chaos suite).
	cfg := StreamConfig{MaxRateBps: 0.35 * topRate(f.man), Fetch: FetchPolicy{Seed: 1}}
	plain, err := NewH2C(ts.URL).Stream(context.Background(), f.tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.TraceID != "" {
		t.Errorf("untraced session reported trace ID %q", plain.TraceID)
	}

	cfg.Trace = trace.New(trace.Config{Seed: 9})
	traced, err := NewH2C(ts.URL).Stream(context.Background(), f.tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if traced.TraceID == "" {
		t.Error("traced session reported no trace ID")
	}

	if len(plain.Chunks) != len(traced.Chunks) {
		t.Fatalf("chunk counts differ: %d vs %d", len(plain.Chunks), len(traced.Chunks))
	}
	for i := range plain.Chunks {
		ca, cb := plain.Chunks[i], traced.Chunks[i]
		if ca.Bytes != cb.Bytes {
			t.Errorf("chunk %d bytes %d vs %d", i, ca.Bytes, cb.Bytes)
		}
		for ti := range ca.Levels {
			if ca.Levels[ti] != cb.Levels[ti] {
				t.Errorf("chunk %d tile %d level %v vs %v", i, ti, ca.Levels[ti], cb.Levels[ti])
			}
		}
	}
	if plain.TotalBytes != traced.TotalBytes {
		t.Errorf("total bytes %d vs %d", plain.TotalBytes, traced.TotalBytes)
	}
}

// Overhead of the nil (disabled) tracer vs a sampling tracer on a real
// streaming session over h2c, as pano-player streams; the per-span cost
// itself is benchmarked in internal/trace.
func benchmarkStream(b *testing.B, tracer *trace.Tracer) {
	f := fixture(b)
	s, err := server.New(f.man)
	if err != nil {
		b.Fatal(err)
	}
	ts := h2cServer(b, s.Handler(), nil)
	cfg := StreamConfig{
		MaxRateBps: 0.35 * topRate(f.man),
		MaxChunks:  1,
		Fetch:      FetchPolicy{Seed: 1},
		Trace:      tracer,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewH2C(ts.URL).Stream(context.Background(), f.tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamNilTracer(b *testing.B) { benchmarkStream(b, nil) }

func BenchmarkStreamTraced(b *testing.B) {
	benchmarkStream(b, trace.New(trace.Config{Seed: 1, MaxTraces: 4}))
}
