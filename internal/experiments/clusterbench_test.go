package experiments

import "testing"

// TestClusterBenchContract is the acceptance bar of the cluster bench:
// the obsd plane federates five live processes, the rollup equals the
// per-process sums exactly, the fleet-wide SLOs page during the origin
// kill and recover after revival (in the sampler and on /debug/slo),
// and one session's spans assemble across at least three processes
// into a valid Chrome trace.
func TestClusterBenchContract(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster bench drives five live HTTP processes plus an obsd plane")
	}
	d := testDataset(t)
	res, table, err := ClusterBench(d)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, "cluster", table)
	if res.Targets != 5 || res.FinalUp != 5 {
		t.Errorf("targets %d, final up %d, want 5/5", res.Targets, res.FinalUp)
	}
	if res.Aborted != 0 {
		t.Errorf("%d live sessions aborted through the outage", res.Aborted)
	}
	if res.CounterSeries == 0 || res.CounterMismatch != 0 {
		t.Errorf("counter federation not exact: %d mismatches over %d series",
			res.CounterMismatch, res.CounterSeries)
	}
	if res.HistSeries == 0 || res.HistMismatch != 0 {
		t.Errorf("histogram federation not exact: %d mismatches over %d series",
			res.HistMismatch, res.HistSeries)
	}
	if res.Unmergeable != 0 {
		t.Errorf("%d unmergeable histogram families in a single-build fleet", res.Unmergeable)
	}
	if !res.Origin0StaleSeen {
		t.Errorf("killed origin never reported stale")
	}
	if res.RebufferPageStep < 0 || !res.RebufferRecovered {
		t.Errorf("rebuffer SLO page/recover = %d/%v", res.RebufferPageStep, res.RebufferRecovered)
	}
	if res.BreakerPageStep < 0 || !res.BreakerRecovered {
		t.Errorf("breaker_open SLO page/recover = %d/%v", res.BreakerPageStep, res.BreakerRecovered)
	}
	// The same page and recovery through obsd's /debug/slo, the bytes an
	// operator's curl sees: non-ok at the outage peak, ok after recovery,
	// and the rebuffer SLO escalated and came back down at the least.
	if res.SLOStateOutage == "ok" || res.SLOStateFinal != "ok" {
		t.Errorf("/debug/slo states outage=%q final=%q, want non-ok then ok",
			res.SLOStateOutage, res.SLOStateFinal)
	}
	if res.RebufferTransitions < 2 {
		t.Errorf("rebuffer SLO transitions = %d, want >= 2 (escalate + recover)", res.RebufferTransitions)
	}
	// The healthy phase must page nothing: both pages belong to the
	// outage ticks, which begin at step clusterHealthySteps.
	if res.RebufferPageStep >= 0 && res.RebufferPageStep < clusterHealthySteps {
		t.Errorf("rebuffer paged at step %d, inside the healthy phase", res.RebufferPageStep)
	}
	if res.BreakerPageStep >= 0 && res.BreakerPageStep < clusterHealthySteps {
		t.Errorf("breaker_open paged at step %d, inside the healthy phase", res.BreakerPageStep)
	}
	if res.TraceProcesses < 3 {
		t.Errorf("assembled trace spans %d processes, want >= 3", res.TraceProcesses)
	}
	if res.TraceSpans < res.TraceProcesses {
		t.Errorf("assembled trace has %d spans across %d processes", res.TraceSpans, res.TraceProcesses)
	}
	if res.PerfettoEvents <= 0 {
		t.Errorf("cluster.perfetto.json validated %d events", res.PerfettoEvents)
	}
	if res.BuildVersions != 1 {
		t.Errorf("%d distinct build commits, want 1", res.BuildVersions)
	}
}
