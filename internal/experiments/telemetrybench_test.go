package experiments

import "testing"

func TestTelemetryBenchContract(t *testing.T) {
	if testing.Short() {
		t.Skip("telemetry bench runs simulator sessions and a Step benchmark")
	}
	d := testDataset(t)
	res, table, err := TelemetryBench(d)
	if err != nil {
		t.Fatal(err)
	}
	// The chaos phase must page the rebuffer SLO, and the recovery phase
	// must drain it back to ok — both observed through /debug/slo, the
	// same bytes an operator's curl would see.
	if res.PageAtStep < telHealthySteps {
		t.Errorf("paged at step %d, want during chaos (>= %d)", res.PageAtStep, telHealthySteps)
	}
	if res.RecoverAtStep <= res.PageAtStep {
		t.Errorf("recovered at step %d, not after paging at %d", res.RecoverAtStep, res.PageAtStep)
	}
	if res.EndpointStateChaos == "ok" || res.EndpointStateFinal != "ok" {
		t.Errorf("endpoint states chaos=%q final=%q, want non-ok then ok",
			res.EndpointStateChaos, res.EndpointStateFinal)
	}
	// Escalation and the eventual recovery are the minimum transition set.
	if res.Transitions < 2 {
		t.Errorf("transitions = %d, want >= 2 (escalate + recover)", res.Transitions)
	}
	if res.PeakBurnFast < 3 { // the configured page burn
		t.Errorf("peak fast burn = %.2f, want past the page threshold 3", res.PeakBurnFast)
	}
	// The sessions populated a real store and the Step benchmark ran.
	if res.Series < 10 {
		t.Errorf("store holds %d series, want a populated registry", res.Series)
	}
	if res.ScrapeNsOp <= 0 || res.ScrapeAllocsOp <= 0 {
		t.Errorf("scrape cost %d ns / %d allocs, want measured", res.ScrapeNsOp, res.ScrapeAllocsOp)
	}
	checkTable(t, "telemetry", table)
	if len(table.Rows) != 10 {
		t.Fatalf("table = %+v, want 10 rows", table)
	}
}
