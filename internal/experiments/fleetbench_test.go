package experiments

import (
	"math"
	"testing"
)

func TestZipfAssign(t *testing.T) {
	out := zipfAssign(24, 4)
	if len(out) != 24 {
		t.Fatalf("assigned %d sessions, want 24", len(out))
	}
	counts := make([]int, 4)
	for _, c := range out {
		if c < 0 || c >= 4 {
			t.Fatalf("choice %d out of range", c)
		}
		counts[c]++
	}
	for i := 1; i < 4; i++ {
		if counts[i] > counts[i-1] {
			t.Fatalf("popularity not monotone: %v", counts)
		}
	}
	if counts[0] <= counts[3] {
		t.Fatalf("no Zipf head: %v", counts)
	}
}

// TestFleetBenchContract is the acceptance bar of the fleet bench: kill
// 1 of 4 shards mid-run and sessions ride through with zero aborts, the
// mean PSPNR stays within 2 dB of the healthy run, a breaker opens
// within a few probe intervals, and the dead shard's request share
// stays bounded.
func TestFleetBenchContract(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet bench runs swarm populations and 48 HTTP sessions")
	}
	old := FleetSwarmSessions
	FleetSwarmSessions = 3000
	defer func() { FleetSwarmSessions = old }()

	d := testDataset(t)
	res, table, err := FleetBench(d)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, "fleet", table)
	if len(table.Rows) != 4 || len(res.Rows) != 4 {
		t.Fatalf("want 4 scenario rows, got table %v, res %+v", table, res.Rows)
	}
	healthy, outage := res.Rows[0], res.Rows[1]
	liveHealthy, liveOutage := res.Rows[2], res.Rows[3]

	for _, r := range res.Rows {
		if r.Aborted != 0 {
			t.Errorf("%s aborted %d sessions", r.Scenario, r.Aborted)
		}
	}
	// The live stack must not shed a single tile; the bandwidth-starved
	// swarm workload legitimately skips a handful (the single-origin
	// baseline does too), so only a per-session bound applies there.
	if liveHealthy.SkippedTiles != 0 || liveOutage.SkippedTiles != 0 {
		t.Errorf("live rows skipped tiles: healthy %d, outage %d",
			liveHealthy.SkippedTiles, liveOutage.SkippedTiles)
	}
	for _, r := range []FleetScenarioResult{healthy, outage} {
		if float64(r.SkippedTiles) > 0.01*float64(r.Sessions) {
			t.Errorf("%s skipped %d tiles over %d sessions", r.Scenario, r.SkippedTiles, r.Sessions)
		}
	}

	// Swarm rows: deterministic QoE gate.
	if outage.Failovers <= healthy.Failovers {
		t.Errorf("outage failovers %d, healthy %d — outage must fail over more",
			outage.Failovers, healthy.Failovers)
	}
	if delta := math.Abs(res.PSPNRDeltaDB); delta > 2 {
		t.Errorf("shard outage moved mean PSPNR by %.2f dB (healthy %.2f, outage %.2f), want <= 2",
			delta, healthy.MeanPSPNR, outage.MeanPSPNR)
	}
	for _, r := range []FleetScenarioResult{healthy, outage} {
		if len(r.ShardLoad) != fleetOriginCount {
			t.Fatalf("%s shard load %v", r.Scenario, r.ShardLoad)
		}
		var sum int64
		for o, n := range r.ShardLoad {
			if n == 0 {
				t.Errorf("%s: shard %d saw no requests", r.Scenario, o)
			}
			sum += n
		}
		if sum != r.OriginRequests {
			t.Errorf("%s: shard loads sum %d != origin requests %d", r.Scenario, sum, r.OriginRequests)
		}
		// Bounded per-origin load: no shard absorbs more than half of a
		// 4-way consistent-hash split.
		if r.MaxShardShare > 0.5 {
			t.Errorf("%s: max shard share %.2f, want <= 0.5", r.Scenario, r.MaxShardShare)
		}
	}

	// Live rows: breaker reaction and dead-shard boundedness.
	if liveOutage.BreakerOpenMs <= 0 {
		t.Error("live outage: no edge breaker opened after the shard kill")
	} else if liveOutage.BreakerOpenMs > 10*float64(fleetProbeInterval.Milliseconds()) {
		t.Errorf("breaker took %.0f ms to open, want within ~10 probe intervals (%d ms)",
			liveOutage.BreakerOpenMs, 10*fleetProbeInterval.Milliseconds())
	}
	if liveHealthy.LiveTileReqs == 0 || liveOutage.LiveTileReqs == 0 {
		t.Fatal("live rows issued no origin tile requests")
	}
	// After the kill the dead shard serves nothing, so its share of the
	// run must fall below a healthy shard's ~1/4.
	deadShare := float64(liveOutage.ShardLoad[0]) / float64(liveOutage.LiveTileReqs)
	if deadShare > 0.5 {
		t.Errorf("dead shard took %.2f of live requests — failover not bounding it", deadShare)
	}
	if liveOutage.MeanEstPSPNR <= 0 || liveHealthy.MeanEstPSPNR <= 0 {
		t.Error("live rows carry no PSPNR estimate")
	}
}
