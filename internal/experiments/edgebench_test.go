package experiments

import "testing"

func TestEdgeBenchContract(t *testing.T) {
	if testing.Short() {
		t.Skip("edge bench streams 40 HTTP sessions")
	}
	d := testDataset(t)
	res, table, err := EdgeBench(d)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, "edge", table)
	if len(table.Rows) != 2 {
		t.Fatalf("table rows = %v, want direct + edge", table)
	}
	if res.Direct.Aborts != 0 || res.Edge.Aborts != 0 {
		t.Fatalf("aborted sessions: direct %d, edge %d — both arms must complete",
			res.Direct.Aborts, res.Edge.Aborts)
	}
	// The acceptance bar: 20 concurrent overlapping sessions, at least
	// half the origin tile fetches absorbed by the edge.
	if res.Sessions != edgeBenchSessions {
		t.Fatalf("sessions %d, want %d", res.Sessions, edgeBenchSessions)
	}
	if res.OffloadFrac < 0.5 {
		t.Errorf("origin offload %.1f%%, want >= 50%%", 100*res.OffloadFrac)
	}
	// Both arms issue the same client-side workload (same traces, same
	// policy); only the origin-side counts should differ.
	if res.Edge.ClientTileReqs == 0 || res.Direct.ClientTileReqs == 0 {
		t.Fatal("an arm issued no tile requests")
	}
	if res.Edge.OriginTileReqs >= res.Direct.OriginTileReqs {
		t.Errorf("edge did not reduce origin traffic: %d vs %d",
			res.Edge.OriginTileReqs, res.Direct.OriginTileReqs)
	}
	if res.Edge.HitRatio <= 0 {
		t.Errorf("edge hit ratio %v, want > 0", res.Edge.HitRatio)
	}
	if res.Edge.CacheBytesUsed <= 0 {
		t.Error("edge cache is empty after 20 sessions")
	}
	if res.Direct.ChunkP50Ms <= 0 || res.Edge.ChunkP50Ms <= 0 {
		t.Error("latency percentiles not measured")
	}
}
