package experiments

import "testing"

// TestLiveBenchContract is the acceptance bar of the live bench: the
// JIT pipeline publishes ≥95% of chunks on time under a sane budget, an
// impossible budget degrades every chunk but still publishes the whole
// feed, two stateless origins over one store answer byte- and
// ETag-identically for every object, and killing one of two origins
// mid-feed aborts no session and loses no published chunk.
func TestLiveBenchContract(t *testing.T) {
	if testing.Short() {
		t.Skip("live bench runs three full feeds plus HTTP sessions")
	}
	d := testDataset(t)
	res, table, err := LiveBench(d)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, "live", table)
	if len(table.Rows) != 4 || len(res.Rows) != 4 {
		t.Fatalf("want 4 scenario rows, got table %v, res %+v", table, res.Rows)
	}
	jit, tight, origins, failover := res.Rows[0], res.Rows[1], res.Rows[2], res.Rows[3]

	if jit.Chunks == 0 {
		t.Fatal("jit_pipeline published nothing")
	}
	if jit.OnTimeFrac < 0.95 {
		t.Errorf("on-time fraction %.2f, want >= 0.95", jit.OnTimeFrac)
	}
	if jit.Degraded != 0 {
		t.Errorf("jit_pipeline degraded %d chunks under a 1 s budget", jit.Degraded)
	}

	if tight.DeadlineMisses != tight.Chunks || tight.Degraded != tight.Chunks {
		t.Errorf("tight deadline: misses %d degraded %d, want all %d chunks",
			tight.DeadlineMisses, tight.Degraded, tight.Chunks)
	}
	if tight.Chunks != jit.Chunks {
		t.Errorf("tight deadline published %d chunks, sane budget %d — late chunks must publish too",
			tight.Chunks, jit.Chunks)
	}

	if origins.TilesCompared == 0 {
		t.Fatal("stateless_origins compared nothing")
	}
	if origins.Mismatches != 0 {
		t.Errorf("%d/%d objects differ between two origins over one store",
			origins.Mismatches, origins.TilesCompared)
	}

	if failover.Aborted != 0 {
		t.Errorf("live failover aborted %d/%d sessions", failover.Aborted, failover.Sessions)
	}
	if failover.LostChunks != 0 {
		t.Errorf("live failover lost %d published chunks", failover.LostChunks)
	}
	if failover.DeadlineMisses != failover.Chunks {
		t.Errorf("failover feed missed %d/%d deadlines — the row must exercise late publishes",
			failover.DeadlineMisses, failover.Chunks)
	}
	if failover.LiveLatencyMaxSec <= 0 {
		t.Error("failover sessions sampled no live latency")
	}
}
