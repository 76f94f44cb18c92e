package trace

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"pano/internal/obs"
)

func TestNilTracerAndSpanAreSafe(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.Start(context.Background(), "session", A("k", 1))
	if sp != nil {
		t.Fatal("nil tracer returned a span")
	}
	if FromContext(ctx) != nil {
		t.Fatal("nil tracer modified the context")
	}
	// Every span method must be a no-op on nil.
	sp.Annotate(A("k", "v"))
	sp.SetError("timeout")
	sp.End()
	if got := sp.TraceHex(); got != "" {
		t.Errorf("nil span TraceHex = %q", got)
	}
	if !sp.TraceID().IsZero() || !sp.SpanID().IsZero() {
		t.Error("nil span has non-zero ids")
	}
	if sp.Traceparent() != "" {
		t.Error("nil span renders a traceparent")
	}
	if tr.Traces() != nil || tr.DroppedSpans() != 0 {
		t.Error("nil tracer has state")
	}
	// StartSpan without a parent in the context is also a no-op.
	if _, child := StartSpan(context.Background(), "chunk"); child != nil {
		t.Error("StartSpan without a parent returned a span")
	}
}

func TestSpanTreeAndStore(t *testing.T) {
	tr := New(Config{Seed: 1})
	ctx, root := tr.Start(context.Background(), "session", A("component", "client"))
	if root == nil {
		t.Fatal("no root span")
	}
	cctx, chunk := StartSpan(ctx, "chunk", A("chunk", 0))
	if chunk == nil {
		t.Fatal("no child span")
	}
	if chunk.TraceID() != root.TraceID() {
		t.Fatalf("child trace %s != root trace %s", chunk.TraceHex(), root.TraceHex())
	}
	_, attempt := StartSpan(cctx, "attempt")
	attempt.SetError("timeout")
	attempt.End()
	chunk.End()
	chunk.End() // double End records once

	if got := tr.Traces(); len(got) != 0 {
		t.Fatalf("trace finished before its root ended: %d", len(got))
	}
	root.End()
	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("finished traces = %d, want 1", len(traces))
	}
	td := traces[0]
	if !td.Complete || len(td.Spans) != 3 {
		t.Fatalf("trace complete=%v spans=%d, want true/3", td.Complete, len(td.Spans))
	}
	if r := td.Root(); r == nil || r.Name != "session" {
		t.Fatalf("root = %+v, want session", r)
	}
	// Parent linkage: the attempt's parent is the chunk, the chunk's the root.
	at := td.Find("attempt")[0]
	ch := td.Find("chunk")[0]
	if at.Parent != ch.ID {
		t.Errorf("attempt parent %s, want chunk %s", at.Parent, ch.ID)
	}
	if ch.Parent != td.Root().ID {
		t.Errorf("chunk parent %s, want root %s", ch.Parent, td.Root().ID)
	}
	if at.Err != "timeout" {
		t.Errorf("attempt error class %q, want timeout", at.Err)
	}
	if v, ok := ch.Attr("chunk").(int); !ok || v != 0 {
		t.Errorf("chunk attr = %v", ch.Attr("chunk"))
	}
	// By-id lookup.
	if tr.Trace(td.ID) == nil {
		t.Error("Trace(id) did not find the finished trace")
	}
	if tr.Trace(TraceID{1}) != nil {
		t.Error("Trace(unknown) returned a trace")
	}
}

func TestIDReproducibilityAndUniqueness(t *testing.T) {
	a, b := New(Config{Seed: 42}), New(Config{Seed: 42})
	for i := 0; i < 4; i++ {
		_, sa := a.Start(context.Background(), "s")
		_, sb := b.Start(context.Background(), "s")
		if sa.TraceID() != sb.TraceID() || sa.SpanID() != sb.SpanID() {
			t.Fatalf("seeded ids diverge at %d", i)
		}
	}
	seen := map[TraceID]bool{}
	c := New(Config{Seed: 7})
	for i := 0; i < 1000; i++ {
		_, s := c.Start(context.Background(), "s")
		if seen[s.TraceID()] {
			t.Fatalf("duplicate trace id at %d", i)
		}
		seen[s.TraceID()] = true
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr := New(Config{Seed: 3})
	_, sp := tr.Start(context.Background(), "session")
	h := sp.Traceparent()
	tid, parent, sampled, ok := ParseTraceparent(h)
	if !ok || !sampled {
		t.Fatalf("round trip failed on %q", h)
	}
	if tid != sp.TraceID() || parent != sp.SpanID() {
		t.Fatalf("parsed (%s,%s), want (%s,%s)", tid, parent, sp.TraceID(), sp.SpanID())
	}
	sp.End()

	bad := []string{
		"",
		"00-short-id-01",
		"01-" + tid.String() + "-" + parent.String() + "-01",            // unknown version
		"00-" + strings.Repeat("0", 32) + "-" + parent.String() + "-01", // zero trace id
		"00-" + tid.String() + "-" + strings.Repeat("0", 16) + "-01",    // zero span id
		"00-" + strings.Repeat("g", 32) + "-" + parent.String() + "-01", // non-hex
		"00-" + tid.String() + "-" + parent.String() + "-01-extra",      // extra field
		"00-" + tid.String()[:31] + "-" + parent.String() + "-01",       // short trace id
		"00-" + tid.String() + "-" + parent.String() + "-zz",            // non-hex flags
	}
	for _, h := range bad {
		if _, _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("accepted malformed traceparent %q", h)
		}
	}
	// Unsampled flag parses fine but reports sampled=false.
	if _, _, s, ok := ParseTraceparent("00-" + tid.String() + "-" + parent.String() + "-00"); !ok || s {
		t.Errorf("flags 00: ok=%v sampled=%v, want true/false", ok, s)
	}
}

func TestStoreBounds(t *testing.T) {
	tr := New(Config{Seed: 5, MaxTraces: 3})
	tr.store.maxSpans = 4
	var roots []*Span
	var ids []TraceID
	for i := 0; i < 5; i++ {
		ctx, root := tr.Start(context.Background(), fmt.Sprintf("session-%d", i))
		ids = append(ids, root.TraceID())
		// 3 children + root = 4 spans exactly at the cap; a 5th drops.
		for j := 0; j < 4; j++ {
			_, c := StartSpan(ctx, "chunk")
			c.End()
		}
		roots = append(roots, root)
	}
	for _, r := range roots {
		r.End() // roots themselves are over the span cap, but still complete the trace
	}
	if tr.DroppedSpans() != 5 {
		t.Errorf("dropped = %d, want 5 (each trace's over-cap root)", tr.DroppedSpans())
	}
	finished := tr.Traces()
	if len(finished) != 3 {
		t.Fatalf("retained %d traces, want 3", len(finished))
	}
	// Oldest-first eviction: the two oldest sessions are gone.
	for i, td := range finished {
		if td.ID != ids[i+2] {
			t.Errorf("retained trace %d = %s, want %s", i, td.ID, ids[i+2])
		}
	}
}

func TestSelfMetricsAndEventLog(t *testing.T) {
	reg := obs.NewRegistry()
	el := obs.NewEventLog(nil, 0)
	tr := New(Config{Seed: 2, Obs: reg, Log: el})
	ctx, root := tr.Start(context.Background(), "session")
	_, c := StartSpan(ctx, "chunk", A("chunk", 3))
	c.SetError("timeout")
	c.End()
	root.End()

	if got := reg.CounterValue("pano_trace_spans_total"); got != 2 {
		t.Errorf("spans_total = %v, want 2", got)
	}
	if got := reg.CounterValue("pano_trace_traces_total"); got != 1 {
		t.Errorf("traces_total = %v, want 1", got)
	}
	ev, ok := el.Last("trace_complete")
	if !ok {
		t.Fatal("no trace_complete event")
	}
	if ev.Str("trace_id") != root.TraceHex() {
		t.Errorf("trace_complete trace_id %q, want %q", ev.Str("trace_id"), root.TraceHex())
	}
	spans := el.Find("span")
	if len(spans) != 2 {
		t.Fatalf("span events = %d, want 2", len(spans))
	}
	chunkEv := spans[0]
	if chunkEv.Str("name") != "chunk" || chunkEv.Str("error_class") != "timeout" {
		t.Errorf("chunk span event = %+v", chunkEv.Attrs)
	}
	if chunkEv.Attr("attr.chunk") == nil {
		t.Error("span event lost its attributes")
	}
}

func TestMiddlewareStitchesAndSurvivesAbort(t *testing.T) {
	tr := New(Config{Seed: 11})
	var aborts int
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := FromContext(r.Context())
		sp.Annotate(A("handled", true))
		if r.URL.Path == "/abort" {
			aborts++
			sp.SetError("conn_reset")
			panic(http.ErrAbortHandler)
		}
		w.WriteHeader(http.StatusOK)
	})
	ts := httptest.NewServer(Middleware(tr, inner))
	defer ts.Close()

	// A client-side root provides the traceparent.
	_, client := tr.Start(context.Background(), "session", A("component", "client"))

	// Fresh connections per request: a GET aborted on a reused keep-alive
	// connection would be silently retried by the transport, duplicating
	// the aborted request's handler span.
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	defer hc.CloseIdleConnections()
	do := func(path string) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		req.Header.Set("traceparent", client.Traceparent())
		resp, err := hc.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}
	do("/ok")
	do("/abort") // server aborts the connection; the span must still record
	do("/ok")
	client.End()

	td := tr.Trace(client.TraceID())
	if td == nil {
		t.Fatal("no stitched trace")
	}
	reqs := td.Find("http_request")
	if len(reqs) != 3 {
		t.Fatalf("server spans = %d, want 3", len(reqs))
	}
	var sawAbort bool
	for _, sd := range reqs {
		if sd.Parent != client.SpanID() {
			t.Errorf("server span parent %s, want client span %s", sd.Parent, client.SpanID())
		}
		if sd.Attr("component") != "server" || sd.Attr("handled") != true {
			t.Errorf("server span attrs = %+v", sd.Attrs)
		}
		if sd.Err == "conn_reset" {
			sawAbort = true
		}
	}
	if !sawAbort {
		t.Error("aborted request's span lost its error class")
	}
	if aborts != 1 {
		t.Fatalf("aborts = %d", aborts)
	}
}

func TestRemoteJoinedTraceCompletesLocally(t *testing.T) {
	// A standalone server only ever sees StartRemote spans: the remote
	// root (the client's session, in another process) never ends in this
	// store. The trace must still list as finished — with later handler
	// spans appending — or /debug/traces would always serve nothing.
	reg := obs.NewRegistry()
	tr := New(Config{Seed: 21, Obs: reg})
	tid := TraceID{0xab, 1}
	for i := 0; i < 2; i++ {
		_, sp := tr.StartRemote(context.Background(), "http_request", tid, SpanID{1})
		sp.End()
	}
	traces := tr.Traces()
	if len(traces) != 1 || traces[0].ID != tid {
		t.Fatalf("finished traces = %d, want the remote-joined trace", len(traces))
	}
	if got := len(traces[0].Spans); got != 2 {
		t.Errorf("spans = %d, want 2 (spans append after local completion)", got)
	}
	// Remote joins are not locally-rooted traces: only spans count.
	if got := reg.CounterValue("pano_trace_traces_total"); got != 0 {
		t.Errorf("traces_total = %v, want 0 for remote joins", got)
	}
	if got := reg.CounterValue("pano_trace_spans_total"); got != 2 {
		t.Errorf("spans_total = %v, want 2", got)
	}
}

func TestMiddlewarePassThrough(t *testing.T) {
	tr := New(Config{Seed: 12})
	var sawSpan bool
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sawSpan = FromContext(r.Context()) != nil
	})
	ts := httptest.NewServer(Middleware(tr, inner))
	defer ts.Close()

	// No header: no span.
	resp, err := http.Get(ts.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sawSpan {
		t.Error("request without traceparent got a span")
	}
	// Unsampled header: no span.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/x", nil)
	req.Header.Set("traceparent", "00-0123456789abcdef0123456789abcdef-0123456789abcdef-00")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sawSpan {
		t.Error("unsampled traceparent got a span")
	}
	if got := len(tr.Traces()); got != 0 {
		t.Errorf("pass-through requests produced %d traces", got)
	}
}

func TestChromeTraceExportRoundTrip(t *testing.T) {
	tr := New(Config{Seed: 13})
	ctx, root := tr.Start(context.Background(), "session", A("component", "client"))
	sctx, chunk := StartSpan(ctx, "chunk")
	_, srv := tr.StartRemote(sctx, "http_request", root.TraceID(), chunk.SpanID(), A("component", "server"))
	srv.SetError("http_5xx")
	srv.End()
	chunk.End()
	root.End()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Traces()...); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("export does not validate: %v\n%s", err, buf.String())
	}
	if n != 3 {
		t.Errorf("X events = %d, want 3", n)
	}
	out := buf.String()
	// Server spans land on tid 2 (the "server" thread), client work on 1.
	if !strings.Contains(out, `"name": "server"`) || !strings.Contains(out, `"name": "client"`) {
		t.Error("missing thread_name metadata events")
	}
	if !strings.Contains(out, `"error_class": "http_5xx"`) || !strings.Contains(out, `"cat": "error"`) {
		t.Error("error span lost its class/category")
	}
	if !strings.Contains(out, root.TraceHex()) {
		t.Error("trace id missing from args")
	}

	// Garbage must not validate.
	for _, bad := range []string{
		`{}`,
		`{"traceEvents":[{"ph":"X","pid":1,"tid":1,"ts":0,"dur":1}]}`,     // empty name
		`{"traceEvents":[{"name":"x","ph":"Q","pid":1,"tid":1}]}`,         // unknown phase
		`{"traceEvents":[{"name":"x","ph":"X","ts":-5,"pid":1,"tid":1}]}`, // negative ts
		`{"traceEvents":[{"name":"x","ph":"X","ts":1,"dur":1}]}`,          // missing pid/tid
		`not json`,
	} {
		if _, err := ValidateChromeTrace([]byte(bad)); err == nil {
			t.Errorf("validated garbage %q", bad)
		}
	}
}

func TestConcurrentSpansRace(t *testing.T) {
	tr := New(Config{Seed: 15, MaxTraces: 8})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx, root := tr.Start(context.Background(), "session")
			for i := 0; i < 50; i++ {
				_, c := StartSpan(ctx, "chunk")
				c.Annotate(A("i", i))
				if i%7 == 0 {
					c.SetError("timeout")
				}
				c.End()
			}
			root.End()
		}(g)
	}
	wg.Wait()
	if got := len(tr.Traces()); got != 8 {
		t.Fatalf("finished traces = %d, want 8", got)
	}
	if tr.DroppedSpans() != 0 {
		t.Errorf("dropped %d spans; 51 per trace fits the %d cap", tr.DroppedSpans(), maxSpansPerTrace)
	}
}

func BenchmarkStartSpanDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "chunk")
		sp.Annotate(A("k", i))
		sp.End()
	}
}

func BenchmarkStartSpanEnabled(b *testing.B) {
	tr := New(Config{Seed: 1, MaxTraces: 2})
	tr.store.maxSpans = 1 << 20
	ctx, root := tr.Start(context.Background(), "session")
	defer root.End()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "chunk")
		sp.End()
	}
}
