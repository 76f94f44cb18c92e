package sim

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"pano/internal/chaos"
	"pano/internal/client"
	"pano/internal/manifest"
	"pano/internal/obs"
	"pano/internal/player"
	"pano/internal/trace"
)

const watchGoldenPath = "testdata/watch_golden.txt"

// wallTimed are the two families a session times on the wall clock; the
// golden holds them to their observation counts alone.
var wallTimed = []string{"pano_abr_decision_seconds", "pano_planner_plan_seconds"}

// watchers is one session's registry, event log and tracer.
type watchers struct {
	reg    *obs.Registry
	log    *obs.EventLog
	tracer *trace.Tracer
}

func newWatchers() watchers {
	return watchers{reg: obs.NewRegistry(), log: obs.NewEventLog(nil, 1<<14), tracer: trace.New(trace.Config{Seed: 11})}
}

// liveNet is a VirtualNet whose manifest is live: the i-th manifest GET
// publishes the first edges[i] chunks (the last entry repeats, and ends
// the feed), so the session waits at an edge that moves only when it
// polls, and skips forward when the edge jumps past its catch-up bound.
type liveNet struct {
	*client.VirtualNet
	edges []int
	calls int
}

func (n *liveNet) Manifest(ctx context.Context) (*manifest.Video, error) {
	m, err := n.VirtualNet.Manifest(ctx)
	if err != nil {
		return nil, err
	}
	i := min(n.calls, len(n.edges)-1)
	n.calls++
	c := *m
	c.Chunks, c.Live, c.Seq = m.Chunks[:n.edges[i]], i < len(n.edges)-1, int64(i)
	return &c, nil
}

// watchedSessions runs the three sessions the golden pins and renders
// what each emitted: a fault-free sim.Run; a session whose tiles fail
// under a chaos rule until some are retried, degraded and skipped; and
// a live session that waits at the edge and skips.
func watchedSessions(t *testing.T) string {
	t.Helper()
	f := fixture(t)
	var b strings.Builder

	w := newWatchers()
	cfg := DefaultConfig()
	cfg.Obs, cfg.Log, cfg.Trace = w.reg, w.log, w.tracer
	res, err := Run(f.pano, f.traces[0], testLink(f, Trace1Frac), player.NewPanoPlanner(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DegradedTiles != 0 || res.SkippedTiles != 0 {
		t.Fatalf("run: %d degraded, %d skipped tiles; want a fault-free session", res.DegradedTiles, res.SkippedTiles)
	}
	renderWatched(t, &b, "run", w, res.TraceID)

	w = newWatchers()
	clk := client.NewVirtualClock(0)
	vn := &client.VirtualNet{Video: f.pano, Clock: clk, Link: testLink(f, 0.35),
		Fault: chaos.Rule{ErrorRate: 0.3, AbortRate: 0.2}, Seed: 3}
	cres := runWatched(t, vn, clk, w, client.LivePolicy{})
	if cres.TotalRetries == 0 || cres.DegradedTiles == 0 || cres.SkippedTiles == 0 {
		t.Fatalf("chaos: %d retries, %d degraded, %d skipped; want each above 0",
			cres.TotalRetries, cres.DegradedTiles, cres.SkippedTiles)
	}
	renderWatched(t, &b, "chaos", w, cres.TraceID)

	w = newWatchers()
	clk = client.NewVirtualClock(0)
	ln := &liveNet{VirtualNet: &client.VirtualNet{Video: f.pano, Clock: clk, Link: testLink(f, 0.35)},
		edges: []int{1, 1, 2, 2, f.pano.NumChunks(), f.pano.NumChunks()}}
	lres := runWatched(t, ln, clk, w, client.LivePolicy{PollInterval: 250 * time.Millisecond})
	if lres.LiveEdgeWaits == 0 || lres.LiveSkippedChunks == 0 {
		t.Fatalf("live: %d edge waits, %d skipped chunks; want each above 0", lres.LiveEdgeWaits, lres.LiveSkippedChunks)
	}
	renderWatched(t, &b, "live", w, lres.TraceID)
	return b.String()
}

// runWatched runs one fully watched client session of the fixture's
// Pano manifest over tp, with sim.Run's session parameters.
func runWatched(t *testing.T, tp client.Transport, clk *client.VirtualClock, w watchers, live client.LivePolicy) *client.StreamResult {
	t.Helper()
	f := fixture(t)
	cfg := StreamConfig(0)
	cfg.Clock, cfg.Live = clk, live
	cfg.Obs, cfg.Log, cfg.Trace = w.reg, w.log, w.tracer
	res, err := client.RunSession(context.Background(), tp, f.traces[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// renderWatched writes what one session emitted: its /metrics
// exposition (the wall-timed families by _count only), its events in
// order without their times, and its span tree without ids or times,
// each node's children in a canonical order (the scorer ends its spans
// on a goroutine of its own).
func renderWatched(t *testing.T, b *strings.Builder, name string, w watchers, traceID string) {
	t.Helper()
	fmt.Fprintf(b, "=== %s: metrics\n", name)
	var exp strings.Builder
	if err := w.reg.WritePrometheus(&exp); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(exp.String()))
	for sc.Scan() {
		line := sc.Text()
		series := strings.TrimPrefix(line, "# exemplar ")
		if i := slices.IndexFunc(wallTimed, func(f string) bool { return strings.HasPrefix(series, f) }); i >= 0 &&
			!strings.HasPrefix(series, wallTimed[i]+"_count") {
			continue
		}
		b.WriteString(line + "\n")
	}

	fmt.Fprintf(b, "=== %s: events\n", name)
	for _, e := range w.log.Events() {
		attrs, err := json.Marshal(e.Attrs)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(b, "%s %s %s\n", e.Level, e.Msg, attrs)
	}

	fmt.Fprintf(b, "=== %s: spans\n", name)
	var td *trace.TraceData
	for _, x := range w.tracer.Traces() {
		if x.ID.String() == traceID {
			td = x
		}
	}
	if td == nil {
		t.Fatalf("%s: trace %q not stored", name, traceID)
	}
	kids := map[trace.SpanID][]*trace.SpanData{}
	for i := range td.Spans {
		sd := &td.Spans[i]
		kids[sd.Parent] = append(kids[sd.Parent], sd)
	}
	var render func(sd *trace.SpanData, depth int) string
	render = func(sd *trace.SpanData, depth int) string {
		var s strings.Builder
		s.WriteString(strings.Repeat("  ", depth) + sd.Name)
		for _, a := range sd.Attrs {
			fmt.Fprintf(&s, " %s=%v", a.Key, a.Value)
		}
		if sd.Err != "" {
			s.WriteString(" error=" + sd.Err)
		}
		s.WriteString("\n")
		var sub []string
		for _, c := range kids[sd.ID] {
			sub = append(sub, render(c, depth+1))
		}
		slices.Sort(sub)
		return s.String() + strings.Join(sub, "")
	}
	root := td.Root()
	if root == nil {
		t.Fatalf("%s: trace has no root span", name)
	}
	if n := len(td.Spans); n >= 4096 {
		t.Fatalf("%s: %d spans, the store's cap: some were dropped", name, n)
	}
	b.WriteString(render(root, 0))
}

// TestWatchedSessionGolden pins everything three watched virtual
// sessions emit — the /metrics text after each, its events and its span
// tree — so that moving the code that watches a session changes none of
// it unnoticed.
//
// To regenerate after an intended change, delete the golden file and
// run the test once: it rewrites the file and fails.
func TestWatchedSessionGolden(t *testing.T) {
	got := watchedSessions(t)
	want, err := os.ReadFile(watchGoldenPath)
	if errors.Is(err, os.ErrNotExist) {
		if err := os.MkdirAll(filepath.Dir(watchGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(watchGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing; wrote it from this run — review and commit it", watchGoldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gl), len(wl)) {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("line %d differs from %s:\n got  %q\n want %q", i+1, watchGoldenPath, g, w)
		}
	}
}
