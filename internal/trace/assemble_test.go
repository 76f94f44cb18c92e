package trace

import (
	"bytes"
	"context"
	"testing"
	"time"
)

// buildProcs simulates three processes contributing spans to one trace
// (client root → edge fill → origin handler) plus a trace private to
// the edge, by round-tripping each tracer through its own chrome
// export — the same path federation takes over HTTP.
func buildProcs(t *testing.T) (procs []ProcessTraces, shared TraceID) {
	t.Helper()
	// Seeds far apart in high bits: newTraceID mixes seed^counter, so
	// adjacent small seeds collide across tracers at small counters.
	client := New(Config{Seed: 0x100})
	edge := New(Config{Seed: 0x200})
	origin := New(Config{Seed: 0x300})

	ctx, root := client.Start(context.Background(), "stream", A("component", "client"))
	shared = root.TraceID()
	_, tile := client.Start(ctx, "tile_fetch", A("tile", 3))

	ectx, fill := edge.StartRemote(context.Background(), "edge.fill", shared, tile.SpanID(),
		A("component", "edge"))
	_, oh := origin.StartRemote(context.Background(), "http_request", shared, fill.SpanID(),
		A("component", "server"))
	oh.End()
	fill.End()
	_ = ectx
	tile.End()
	root.End()

	// A second, edge-local trace must stay separate after assembly.
	_, solo := edge.Start(context.Background(), "probe")
	solo.End()

	for name, tr := range map[string]*Tracer{"client": client, "edge0": edge, "origin0": origin} {
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, tr.Traces()...); err != nil {
			t.Fatal(err)
		}
		tds, err := ParseChromeTrace(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: ParseChromeTrace: %v", name, err)
		}
		procs = append(procs, ProcessTraces{Process: name, Traces: tds})
	}
	return procs, shared
}

func TestParseChromeTraceRoundTrip(t *testing.T) {
	tr := New(Config{Seed: 7})
	ctx, root := tr.Start(context.Background(), "session", A("component", "client"), A("w", 3840))
	_, child := tr.Start(ctx, "tile_fetch", A("tile", 9))
	child.SetError("timeout")
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Traces()...); err != nil {
		t.Fatal(err)
	}
	tds, err := ParseChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(tds) != 1 {
		t.Fatalf("parsed %d traces, want 1", len(tds))
	}
	td := tds[0]
	if td.ID != root.TraceID() {
		t.Errorf("trace id %s, want %s", td.ID, root.TraceID())
	}
	if len(td.Spans) != 2 {
		t.Fatalf("parsed %d spans, want 2", len(td.Spans))
	}
	r := td.Root()
	if r == nil || r.Name != "session" {
		t.Fatalf("root = %+v, want session span", r)
	}
	if got := r.Attr("component"); got != "client" {
		t.Errorf("root component = %v", got)
	}
	tf := td.Find("tile_fetch")
	if len(tf) != 1 {
		t.Fatalf("tile_fetch spans = %d, want 1", len(tf))
	}
	if tf[0].Parent != r.ID {
		t.Errorf("child parent = %s, want %s", tf[0].Parent, r.ID)
	}
	if tf[0].Err != "timeout" {
		t.Errorf("child err = %q, want timeout", tf[0].Err)
	}
	if tf[0].Start.Before(r.Start.Add(-time.Millisecond)) {
		t.Errorf("child start %v before root %v", tf[0].Start, r.Start)
	}
}

func TestAssembleTraces(t *testing.T) {
	procs, shared := buildProcs(t)
	assembled := AssembleTraces(procs)
	if len(assembled) != 2 {
		t.Fatalf("assembled %d traces, want 2 (shared + edge-local)", len(assembled))
	}
	var joint *TraceData
	for _, td := range assembled {
		if td.ID == shared {
			joint = td
		}
	}
	if joint == nil {
		t.Fatalf("shared trace %s missing from assembly", shared)
	}
	if len(joint.Spans) != 4 {
		t.Fatalf("joint trace has %d spans, want 4 (client 2 + edge 1 + origin 1)", len(joint.Spans))
	}
	ps := joint.Processes()
	if len(ps) != 3 {
		t.Fatalf("joint trace spans %d processes (%v), want 3", len(ps), ps)
	}
	for i := 1; i < len(joint.Spans); i++ {
		if joint.Spans[i].Start.Before(joint.Spans[i-1].Start) {
			t.Errorf("spans not start-ordered at %d", i)
		}
	}

	// Feeding overlapping fragments twice must not duplicate spans.
	again := AssembleTraces(append(procs, procs...))
	for _, td := range again {
		if td.ID == shared && len(td.Spans) != 4 {
			t.Errorf("dedupe failed: %d spans after double feed, want 4", len(td.Spans))
		}
	}
}

func TestWriteAssembledChromeTrace(t *testing.T) {
	procs, shared := buildProcs(t)
	assembled := AssembleTraces(procs)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, assembled...); err != nil {
		t.Fatal(err)
	}
	spans, err := ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("assembled trace does not validate: %v", err)
	}
	if spans != 5 {
		t.Errorf("validated %d X events, want 5", spans)
	}

	// The per-process tracks survive a reparse: every span still carries
	// its process attribute.
	tds, err := ParseChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, td := range tds {
		if td.ID != shared {
			continue
		}
		if ps := td.Processes(); len(ps) != 3 {
			t.Errorf("reparsed joint trace has processes %v, want 3 distinct", ps)
		}
	}

	// Determinism: assembling the same fragments again renders the same
	// bytes (the bench gate depends on this).
	var buf2 bytes.Buffer
	if err := WriteChromeTrace(&buf2, AssembleTraces(procs)...); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("assembled rendering is not deterministic")
	}
}

func TestParseChromeTraceRejectsBadIDs(t *testing.T) {
	bad := []string{
		`{"traceEvents":[{"name":"x","ph":"X","ts":1,"pid":1,"tid":1,"args":{"trace_id":"zz","span_id":"0102030405060708"}}]}`,
		`{"traceEvents":[{"name":"x","ph":"X","ts":1,"pid":1,"tid":1,"args":{"trace_id":"000102030405060708090a0b0c0d0e0f","span_id":"nope"}}]}`,
		// An id longer than its type is refused, not decoded past it.
		`{"traceEvents":[{"name":"x","ph":"X","ts":1,"pid":1,"tid":1,"args":{"trace_id":"000102030405060708090a0b0c0d0e0f1011","span_id":"0102030405060708"}}]}`,
		`not json`,
	}
	for _, in := range bad {
		if _, err := ParseChromeTrace([]byte(in)); err == nil {
			t.Errorf("no error for %q", in)
		}
	}
	// Events without our id args are skipped, not fatal.
	tds, err := ParseChromeTrace([]byte(`{"traceEvents":[{"name":"m","ph":"M","pid":1,"tid":0},{"name":"x","ph":"X","ts":1,"pid":1,"tid":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(tds) != 0 {
		t.Errorf("foreign events produced %d traces, want 0", len(tds))
	}
}
