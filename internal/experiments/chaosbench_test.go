package experiments

import "testing"

func TestChaosBenchContract(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos bench streams many HTTP sessions")
	}
	d := testDataset(t)
	res, table, err := ChaosBench(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Profiles) != len(chaosProfiles()) {
		t.Fatalf("%d profiles, want %d", len(res.Profiles), len(chaosProfiles()))
	}
	var off, faulty *ChaosProfileResult
	for i := range res.Profiles {
		pr := &res.Profiles[i]
		// The robustness contract: no server-side fault profile may abort
		// a session, and retries stay within the ladder's budget.
		if pr.Aborts != 0 {
			t.Errorf("%s: %d aborted sessions", pr.Profile, pr.Aborts)
		}
		if !pr.RetriesBounded {
			t.Errorf("%s: retries exceeded the ladder bound", pr.Profile)
		}
		switch pr.Profile {
		case "off":
			off = pr
		case "tile-error-10pct":
			faulty = pr
		}
	}
	if off == nil || faulty == nil {
		t.Fatal("expected profiles missing from the result")
	}
	if off.TotalRetries != 0 || off.DegradedFrac != 0 || off.SkippedFrac != 0 || off.InjectedErrors != 0 {
		t.Errorf("healthy profile recorded failures: %+v", off)
	}
	if faulty.InjectedErrors == 0 {
		t.Error("10%% error profile injected nothing")
	}
	if faulty.TotalRetries == 0 {
		t.Error("10%% error profile caused no retries")
	}
	if faulty.MeanEstPSPNR <= 0 {
		t.Errorf("faulty profile mean PSPNR = %v", faulty.MeanEstPSPNR)
	}
	checkTable(t, "chaos", table)
	if len(table.Rows) != len(res.Profiles) {
		t.Errorf("table rows %d, profiles %d", len(table.Rows), len(res.Profiles))
	}
}
