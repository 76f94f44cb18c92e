package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var goldenT0 = time.Unix(1700000000, 0)

// goldenSpan builds one finished span starting ms milliseconds after
// goldenT0.
func goldenSpan(tid TraceID, id, parent byte, name string, ms, durMs int, attrs ...Attr) SpanData {
	sd := SpanData{
		Trace: tid, ID: SpanID{id}, Name: name, Attrs: attrs,
		Start: goldenT0.Add(time.Duration(ms) * time.Millisecond),
		Dur:   time.Duration(durMs) * time.Millisecond,
	}
	if parent != 0 {
		sd.Parent = SpanID{parent}
	}
	return sd
}

// inProcessTrace is one client session with a server span stitched in,
// as one tracer's store holds it: spans in end order, distinct starts,
// the root first by start time.
func inProcessTrace() *TraceData {
	tid := TraceID{0xc1, 0x1e, 0x47}
	server := goldenSpan(tid, 4, 3, "http_request", 12, 3, A("component", "server"), A("method", "GET"), A("path", "/video/0/3/2.bin"))
	server.Err = "http_5xx"
	return &TraceData{ID: tid, Complete: true, Spans: []SpanData{
		server,
		goldenSpan(tid, 3, 2, "tile_fetch", 11, 6, A("component", "client"), A("tile", 3), A("rung", "retry")),
		goldenSpan(tid, 2, 1, "chunk", 10, 20, A("chunk", 0)),
		goldenSpan(tid, 1, 0, "session", 0, 40, A("component", "client"), A("video", "v0"), A("budget_mbit", 2.5)),
	}}
}

// assembledTraces is a client → edge → origin trace and an edge-local
// one, put together from three processes' fragments.
func assembledTraces() []*TraceData {
	shared, solo := TraceID{0x5a, 0x4e}, TraceID{0x0e, 0xd9}
	return AssembleTraces([]ProcessTraces{
		{Process: "client", Traces: []*TraceData{{ID: shared, Spans: []SpanData{
			goldenSpan(shared, 2, 1, "tile_fetch", 5, 12, A("component", "client"), A("tile", 7)),
			goldenSpan(shared, 1, 0, "session", 0, 30, A("component", "client")),
		}}}},
		{Process: "edge0", Traces: []*TraceData{
			{ID: shared, Spans: []SpanData{goldenSpan(shared, 3, 2, "edge.fill", 7, 8, A("component", "edge"), A("cache", "miss"))}},
			{ID: solo, Spans: []SpanData{goldenSpan(solo, 9, 0, "probe", 2, 1, A("component", "edge"))}},
		}},
		{Process: "origin0", Traces: []*TraceData{{ID: shared, Spans: []SpanData{
			goldenSpan(shared, 4, 3, "http_request", 9, 4, A("component", "server"), A("method", "GET")),
		}}}},
	})
}

// TestChromeExportGolden pins the Chrome trace-event bytes of one
// in-process client+server trace and of one assembled three-process
// trace. A missing fixture is written from this run and fails the
// test: delete one only on purpose, and say what moved.
func TestChromeExportGolden(t *testing.T) {
	var inProc, assembled bytes.Buffer
	if err := WriteChromeTrace(&inProc, inProcessTrace()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&assembled, assembledTraces()...); err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]byte{
		"chrome_inprocess_golden.json": inProc.Bytes(),
		"chrome_assembled_golden.json": assembled.Bytes(),
	} {
		path := filepath.Join("testdata", name)
		want, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Errorf("%s was missing; wrote it from this run — review and commit it", path)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("export moved from %s; got:\n%s", path, got)
		}
	}
}
