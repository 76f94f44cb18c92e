package experiments

import "testing"

func TestTraceBenchContract(t *testing.T) {
	if testing.Short() {
		t.Skip("trace bench runs a traced simulator session")
	}
	d := testDataset(t)
	res, table, err := TraceBench(d)
	if err != nil {
		t.Fatal(err)
	}

	if res.SimTraceID == "" {
		t.Fatal("simulator session reported no trace id")
	}
	// The export validated and holds at least every phase span.
	var phaseSpans int
	for _, ph := range res.Phases {
		phaseSpans += ph.Spans
	}
	if res.PerfettoEvents < phaseSpans {
		t.Errorf("perfetto events = %d, want at least the %d phase spans",
			res.PerfettoEvents, phaseSpans)
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
