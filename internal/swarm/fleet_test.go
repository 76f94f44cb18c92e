package swarm

import (
	"context"
	"testing"
	"time"

	"pano/internal/chaos"
	"pano/internal/client"
	"pano/internal/codec"
	"pano/internal/fleet"
	"pano/internal/nettrace"
	"pano/internal/obs"
)

func fleetConfig(f *fixtureT) Config {
	cfg := baseConfig(f)
	cfg.Fleet = &FleetConfig{
		Origins: 4,
		Breaker: fleet.BreakerConfig{FailureThreshold: 2, OpenFor: 2 * time.Second},
	}
	return cfg
}

func TestPlacementCoversAllShards(t *testing.T) {
	f := fixture(t)
	fc := &FleetConfig{Origins: 4}
	p := newPlacement(f.pano, fc)
	if len(p.manifest) != 4 {
		t.Fatalf("manifest order %v", p.manifest)
	}
	owned := make([]int, 4)
	for k := range f.pano.Chunks {
		for ti := range f.pano.Chunks[k].Tiles {
			for l := 0; l < codec.NumLevels; l++ {
				order := p.tileOrder(k, ti, codec.Level(l))
				if len(order) != 4 {
					t.Fatalf("tile (%d,%d,%d) order %v", k, ti, l, order)
				}
				seen := map[int]bool{}
				for _, o := range order {
					if o < 0 || o >= 4 || seen[o] {
						t.Fatalf("tile (%d,%d,%d) bad order %v", k, ti, l, order)
					}
					seen[o] = true
				}
				owned[order[0]]++
			}
		}
	}
	total := 0
	for _, n := range owned {
		total += n
	}
	for o, n := range owned {
		if n < total/12 {
			t.Errorf("shard %d owns %d/%d objects — ring badly skewed: %v", o, n, total, owned)
		}
	}
}

// TestFleetShardOutageZeroAborts is the population-scale analogue of
// the edge failover test: one of four shards goes hard-down mid-run and
// every session rides through on ring failover — zero aborts, zero
// skipped tiles, load redistributed across the surviving shards.
func TestFleetShardOutageZeroAborts(t *testing.T) {
	f := fixture(t)
	cfg := fleetConfig(f)
	cfg.Fleet.Outages = []chaos.Down{{After: 5 * time.Second, For: 15 * time.Second}}
	cfg.Obs = obs.NewRegistry()
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Summary
	if s.Completed != s.Sessions || s.Errored != 0 {
		t.Fatalf("shard outage aborted sessions: %+v", s)
	}
	if s.SkippedTiles != 0 {
		t.Errorf("shard outage skipped %d tiles", s.SkippedTiles)
	}
	if s.FleetFailovers == 0 {
		t.Error("no failovers recorded across a 15s shard outage")
	}
	if s.FleetOrigins != 4 || len(s.FleetShardLoad) != 4 {
		t.Fatalf("fleet rollup shape: %+v", s)
	}
	var shardSum int64
	for o, n := range s.FleetShardLoad {
		if n == 0 {
			t.Errorf("shard %d saw no requests", o)
		}
		shardSum += n
	}
	if shardSum != s.OriginRequests {
		t.Errorf("shard loads sum to %d, origin requests %d", shardSum, s.OriginRequests)
	}
	if got := cfg.Obs.CounterValue("pano_swarm_fleet_failovers_total"); got != float64(s.FleetFailovers) {
		t.Errorf("metrics failovers %v != summary %d", got, s.FleetFailovers)
	}

	// The same population without the outage fails over strictly less.
	clean, err := Run(context.Background(), fleetConfig(f))
	if err != nil {
		t.Fatal(err)
	}
	if clean.Summary.FleetFailovers >= s.FleetFailovers {
		t.Errorf("healthy fleet failed over %d times, outage run %d",
			clean.Summary.FleetFailovers, s.FleetFailovers)
	}
	if clean.Summary.Errored != 0 {
		t.Errorf("healthy fleet errored %d sessions", clean.Summary.Errored)
	}
}

// TestFleetHedgesModelled: with a fixed hedge delay below typical
// transfer times, sessions model hedged backups and some of them win.
func TestFleetHedgesModelled(t *testing.T) {
	f := fixture(t)
	cfg := fleetConfig(f)
	cfg.Fetch.HedgeDelay = 50 * time.Millisecond
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Summary
	if s.FleetHedges == 0 {
		t.Fatalf("no hedges modelled with a 50ms fixed delay: %+v", s)
	}
	if s.FleetHedgeWins > s.FleetHedges {
		t.Errorf("hedge wins %d > issued %d", s.FleetHedgeWins, s.FleetHedges)
	}
	// Hedging never hurts virtual-time QoE and costs extra requests.
	plain, err := Run(context.Background(), fleetConfig(f))
	if err != nil {
		t.Fatal(err)
	}
	if s.OriginRequests <= plain.Summary.OriginRequests {
		t.Errorf("hedged run issued %d requests, plain %d",
			s.OriginRequests, plain.Summary.OriginRequests)
	}
}

func TestFleetConfigValidation(t *testing.T) {
	f := fixture(t)
	for i, mod := range []func(*Config){
		func(c *Config) { c.Fleet = &FleetConfig{Origins: 0} },
		func(c *Config) { c.Fleet = &FleetConfig{Origins: 1, Outages: make([]chaos.Down, 2)} },
		func(c *Config) {
			// A flapping period <= the window degenerates to a permanent
			// outage; reject it like the spec parser would.
			c.Fleet = &FleetConfig{Origins: 2,
				Outages: []chaos.Down{{For: 10 * time.Second, Every: 5 * time.Second}}}
		},
	} {
		cfg := baseConfig(f)
		mod(&cfg)
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("case %d: no error", i)
		}
	}
}

// TestFleetBudgetDryReleasesProbe: a dry retry budget ends the ladder
// on a shard whose half-open probe slot Allow just consumed; the slot
// must be handed back. Per-session swarm breakers have no active
// prober, so a leaked slot would silently remove the shard for the
// rest of the session and skew failover/QoE results.
func TestFleetBudgetDryReleasesProbe(t *testing.T) {
	f := fixture(t)
	m := f.pano
	fc := &FleetConfig{
		Origins: 2,
		Breaker: fleet.BreakerConfig{FailureThreshold: 1, OpenFor: time.Second},
	}
	place := newPlacement(m, fc)
	order := place.tileOrder(0, 0, 0)
	// The object's owner shard is hard-down: the first rung fails
	// without consuming budget, so the ladder consults the budget at
	// the successor.
	outages := make([]chaos.Down, fc.Origins)
	outages[order[0]] = chaos.Down{Always: true}
	fc.Outages = outages

	flat := &nettrace.Trace{Mbps: make([]float64, 60)}
	for i := range flat.Mbps {
		flat.Mbps[i] = 10
	}
	clk := client.NewVirtualClock(0)
	s := newNetem(m, clk, &nettrace.Link{Trace: flat}, chaos.Rule{}, 1, 1e4, &scratch{})
	s.fleet = newFleetSim(fc, place, 1, client.FetchPolicy{HedgeBudgetRatio: 0.001, HedgeBudgetBurst: 1})

	s.fleet.pol.Breaker(order[1]).Failure(clk.Now()) // threshold 1: successor opens
	for s.fleet.pol.Budget().Spend() {               // drain the bucket
	}
	clk.AdvanceSec(2) // past the jittered OpenFor: the next Allow is the probe

	if _, err := s.fleetTile(context.Background(), 0, 0, 0, m.Chunks[0].Tiles[0].Bits[0]); err == nil {
		t.Fatal("fleetTile succeeded with its owner shard down and a dry budget")
	}
	if s.fleet.budgetDenied == 0 {
		t.Fatal("budget never reported dry — scenario did not reach the denied rung")
	}
	if !s.fleet.pol.Breaker(order[1]).Available(clk.Now()) {
		t.Fatal("budget-denied ladder leaked the shard's half-open probe slot")
	}
}
