package experiments

import "testing"

func TestTraceBenchContract(t *testing.T) {
	if testing.Short() {
		t.Skip("trace bench streams a full HTTP session")
	}
	d := testDataset(t)
	res, table, err := TraceBench(d)
	if err != nil {
		t.Fatal(err)
	}

	if res.SimTraceID == "" || res.HTTPTraceID == "" || res.SimTraceID == res.HTTPTraceID {
		t.Fatalf("trace ids: sim=%q http=%q", res.SimTraceID, res.HTTPTraceID)
	}
	// The stitching contract: the chaos-wrapped HTTP session's trace
	// holds server handler spans, some carrying injected-fault marks.
	if res.ServerSpans == 0 {
		t.Error("no server spans stitched into the client trace")
	}
	if res.ChaosFaults == 0 {
		t.Error("10% tile-error profile annotated no handler span")
	}
	if res.ChaosFaults > res.ServerSpans {
		t.Errorf("chaos faults %d > server spans %d", res.ChaosFaults, res.ServerSpans)
	}
	// The export validated and is non-trivial.
	if res.PerfettoEvents <= res.ServerSpans {
		t.Errorf("perfetto events = %d, want more than the %d server spans alone",
			res.PerfettoEvents, res.ServerSpans)
	}
	// Every pipeline phase appears, with spans and a defined share.
	if len(res.Phases) != len(tracePhases) {
		t.Fatalf("phases = %d, want %d", len(res.Phases), len(tracePhases))
	}
	var share float64
	for _, ph := range res.Phases {
		if ph.Spans == 0 {
			t.Errorf("phase %s recorded no spans", ph.Phase)
		}
		if ph.MeanSec < 0 || ph.MaxSec < ph.MeanSec {
			t.Errorf("phase %s stats inconsistent: %+v", ph.Phase, ph)
		}
		share += ph.Share
	}
	if share < 0.999 || share > 1.001 {
		t.Errorf("phase shares sum to %v, want 1", share)
	}
	checkTable(t, "trace", table)
	if len(table.Rows) != len(res.Phases) {
		t.Errorf("table rows %d, phases %d", len(table.Rows), len(res.Phases))
	}
}
