package experiments

import (
	"bytes"
	"fmt"
	"slices"

	"pano/internal/player"
	"pano/internal/provider"
	"pano/internal/sim"
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
	// PerfettoEvents is the validated event count of the Chrome trace
	// export (the Table's Perfetto bytes).
	PerfettoEvents int
}

// TraceBench records one seeded simulator session as a span tree,
// breaks it down by pipeline phase, exports it as Chrome trace-event
// JSON (the Table's Perfetto bytes; pano-bench saves them as
// trace.perfetto.json, loadable in Perfetto), and validates the
// export's shape. The HTTP session's trace — server handler spans
// stitched into the client's across the traceparent hop, chaos faults
// annotated — is proven by internal/client's
// TestStreamTraceStitchesAcrossRetries, and across processes by the
// cluster experiment.
func TraceBench(d *Dataset) (TraceBenchResult, *Table, error) {
	vi := d.TracedIndices()[0]
	m, err := d.Manifest(vi, provider.ModePano)
	if err != nil {
		return TraceBenchResult{}, nil, err
	}
	tr := d.Traces(vi)[0]

	tracer := trace.New(trace.Config{Seed: 7})
	link := sim.ScaledLink(m, 0.5, d.Scale.Seed+uint64(vi))
	simRes, err := sim.Run(m, tr, link, player.NewPanoPlanner(), sim.Config{
		Seed:  7,
		Trace: tracer,
	})
	if err != nil {
		return TraceBenchResult{}, nil, err
	}

	res := TraceBenchResult{SimTraceID: simRes.TraceID}
	simTrace, phases, err := sessionPhases(tracer, simRes.TraceID)
	if err != nil {
		return res, nil, err
	}
	res.Phases = phases

	// Export the trace and validate the export's shape.
	var export bytes.Buffer
	if err := trace.WriteChromeTrace(&export, simTrace); err != nil {
		return res, nil, err
	}
	res.PerfettoEvents, err = trace.ValidateChromeTrace(export.Bytes())
	if err != nil {
		return res, nil, fmt.Errorf("tracebench: invalid Chrome trace export: %w", err)
	}

	t := &Table{
		Title: fmt.Sprintf("Per-phase session timeline (sim trace %s; trace.perfetto.json: %d events)",
			res.SimTraceID, res.PerfettoEvents),
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

// sessionPhases finds the finished trace of the session whose hex id is
// id and sums its spans by pipeline phase, in tracePhases order, with
// each phase's share of the summed phase time.
func sessionPhases(tracer *trace.Tracer, id string) (*trace.TraceData, []PhaseStat, error) {
	traces := tracer.Traces()
	i := slices.IndexFunc(traces, func(t *trace.TraceData) bool { return t.ID.String() == id })
	if i < 0 {
		return nil, nil, fmt.Errorf("finished trace %q missing", id)
	}
	td := traces[i]
	var phases []PhaseStat
	var phaseTotal float64
	for _, ph := range tracePhases {
		spans := td.Find(ph)
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
		phases = append(phases, st)
	}
	if phaseTotal > 0 {
		for i := range phases {
			phases[i].Share = phases[i].TotalSec / phaseTotal
		}
	}
	return td, phases, nil
}
