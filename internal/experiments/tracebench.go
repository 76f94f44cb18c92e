package experiments

import (
	"bytes"
	"context"
	"fmt"

	"pano/internal/chaos"
	"pano/internal/client"
	"pano/internal/player"
	"pano/internal/provider"
	"pano/internal/sim"
	"pano/internal/testbed"
	"pano/internal/trace"
)

// tracePhases are the per-chunk pipeline phases in execution order —
// the span names the client and simulator both emit under each "chunk"
// span, so a session decomposes into where the time actually goes.
var tracePhases = []string{"estimate", "mpc", "assign", "fetch", "stitch"}

// PhaseStat is the latency breakdown of one pipeline phase.
type PhaseStat struct {
	Phase    string
	Spans    int
	TotalSec float64
	MeanSec  float64
	MaxSec   float64
	// Share is this phase's fraction of the summed phase time.
	Share float64
}

// TraceBenchResult is the BENCH_trace.json payload.
type TraceBenchResult struct {
	// SimTraceID is the traced simulator session.
	SimTraceID string
	Phases     []PhaseStat
	// HTTPTraceID is a real chaos-wrapped HTTP session whose client and
	// server spans share one trace (the W3C traceparent hop).
	HTTPTraceID string
	// ServerSpans counts the server-side handler spans stitched into the
	// HTTP session's trace; ChaosFaults counts those carrying a chaos.*
	// fault annotation.
	ServerSpans int
	ChaosFaults int
	// PerfettoEvents is the validated event count of the Chrome trace
	// export (the Table's Perfetto bytes).
	PerfettoEvents int
}

// TraceBench records one seeded simulator session and one chaos-wrapped
// HTTP session as span trees, breaks the simulator session down by
// pipeline phase, exports everything as Chrome trace-event JSON (the
// Table's Perfetto bytes; pano-bench saves them as trace.perfetto.json,
// loadable in Perfetto), and validates the export's shape. It fails
// when the HTTP trace does not stitch — i.e. when no server-side
// handler span joined the client's trace.
func TraceBench(d *Dataset) (TraceBenchResult, *Table, error) {
	vi := d.TracedIndices()[0]
	m, err := d.Manifest(vi, provider.ModePano)
	if err != nil {
		return TraceBenchResult{}, nil, err
	}
	tr := d.Traces(vi)[0]

	// One tracer for everything: the simulator session, the HTTP client
	// session, and the HTTP server's handler spans, so the store holds
	// complete stitched traces.
	tracer := trace.New(trace.Config{Seed: 7})

	// Session 1: the seeded simulator run (the per-phase breakdown).
	link := sim.ScaledLink(m, 0.5, d.Scale.Seed+uint64(vi))
	simRes, err := sim.Run(m, tr, link, player.NewPanoPlanner(), sim.Config{
		Seed:  7,
		Trace: tracer,
	})
	if err != nil {
		return TraceBenchResult{}, nil, err
	}

	// Session 2: a real HTTP session through the acceptance chaos profile
	// ("seed=7,tile-error=0.1"), traced end to end: the origin shares the
	// tracer, so its handler spans (annotated by the chaos faults) land in
	// the client's trace.
	prof, err := chaos.Parse("seed=7,tile-error=0.1")
	if err != nil {
		return TraceBenchResult{}, nil, err
	}
	tb := testbed.New()
	origin, err := tb.AddOrigin(testbed.OriginConfig{Manifest: m, Chaos: chaos.New(prof), Tracer: tracer})
	if err != nil {
		return TraceBenchResult{}, nil, err
	}
	pol := testbed.LoopbackPolicy()
	pol.Seed = 7
	httpRes, err := tb.Client(origin.URL).Stream(context.Background(), tr, client.StreamConfig{
		MaxRateBps: testbed.RateCap(m),
		Fetch:      pol,
		Trace:      tracer,
	})
	tb.Close() // waits for in-flight handlers, so every server span has ended
	if err != nil {
		return TraceBenchResult{}, nil, err
	}

	res := TraceBenchResult{
		SimTraceID:  simRes.TraceID,
		HTTPTraceID: httpRes.TraceID,
	}

	traces := tracer.Traces()
	var simTrace, httpTrace *trace.TraceData
	for _, t := range traces {
		switch t.ID.String() {
		case simRes.TraceID:
			simTrace = t
		case httpRes.TraceID:
			httpTrace = t
		}
	}
	if simTrace == nil || httpTrace == nil {
		return res, nil, fmt.Errorf("tracebench: finished traces missing (sim=%v http=%v)",
			simTrace != nil, httpTrace != nil)
	}
	for _, sd := range httpTrace.Spans {
		if sd.Name == "http_request" {
			res.ServerSpans++
			for _, a := range sd.Attrs {
				if len(a.Key) > 6 && a.Key[:6] == "chaos." {
					res.ChaosFaults++
					break
				}
			}
		}
	}
	if res.ServerSpans == 0 {
		return res, nil, fmt.Errorf("tracebench: no server spans stitched into client trace %s", res.HTTPTraceID)
	}

	// Per-phase breakdown of the simulator session.
	var phaseTotal float64
	for _, ph := range tracePhases {
		spans := simTrace.Find(ph)
		st := PhaseStat{Phase: ph, Spans: len(spans)}
		for _, sd := range spans {
			s := sd.Dur.Seconds()
			st.TotalSec += s
			if s > st.MaxSec {
				st.MaxSec = s
			}
		}
		if st.Spans > 0 {
			st.MeanSec = st.TotalSec / float64(st.Spans)
		}
		phaseTotal += st.TotalSec
		res.Phases = append(res.Phases, st)
	}
	if phaseTotal > 0 {
		for i := range res.Phases {
			res.Phases[i].Share = res.Phases[i].TotalSec / phaseTotal
		}
	}

	// Export both traces and validate the export's shape.
	var export bytes.Buffer
	if err := trace.WriteChromeTrace(&export, simTrace, httpTrace); err != nil {
		return res, nil, err
	}
	res.PerfettoEvents, err = trace.ValidateChromeTrace(export.Bytes())
	if err != nil {
		return res, nil, fmt.Errorf("tracebench: invalid Chrome trace export: %w", err)
	}

	t := &Table{
		Title: fmt.Sprintf(
			"Per-phase session timeline (sim trace %s; http trace %s: %d server spans, %d chaos faults; trace.perfetto.json: %d events)",
			res.SimTraceID, res.HTTPTraceID, res.ServerSpans, res.ChaosFaults,
			res.PerfettoEvents),
		Header:   []string{"phase", "spans", "total_ms", "mean_us", "max_us", "share_pct"},
		Perfetto: export.Bytes(),
	}
	for _, st := range res.Phases {
		t.Rows = append(t.Rows, []string{
			st.Phase,
			fmt.Sprintf("%d", st.Spans),
			f2(st.TotalSec * 1e3),
			f1(st.MeanSec * 1e6),
			f1(st.MaxSec * 1e6),
			f1(100 * st.Share),
		})
	}
	return res, t, nil
}
