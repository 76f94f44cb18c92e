package fleet_test

import (
	"context"
	"testing"
	"time"

	"pano/internal/chaos"
	"pano/internal/fleet"
	"pano/internal/nettrace"
	"pano/internal/provider"
	"pano/internal/scene"
	"pano/internal/swarm"
	"pano/internal/viewport"
)

// TestSwarmWalksConserve runs the swarm determinism suite's fleet config
// — faults, a flapping shard outage, per-session breakers and hedging —
// under the conservation checker, so the swarm's walks of the ladder are
// held to the same rule as fleet.Fetch's. The fixed hedge delay sits
// inside the origins' 20±10 ms latency, so that hedges race.
func TestSwarmWalksConserve(t *testing.T) {
	v := scene.Generate(scene.Sports, 23, scene.Options{W: 240, H: 120, FPS: 10, DurationSec: 8})
	var views []*viewport.Trace
	for i := 0; i < 4; i++ {
		views = append(views, viewport.Synthesize(v, uint64(i+1), viewport.DefaultSynthesizeOpts()))
	}
	m, err := provider.Preprocess(v, views, provider.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	top := m.ChunkBits(0, 0) / m.ChunkSec / 1e6
	var bw []*nettrace.Trace
	for i, frac := range []float64{0.25, 0.4, 0.6} {
		bw = append(bw, nettrace.SynthesizeLTE(uint64(100+i), 120, frac*top))
	}
	cfg := swarm.Config{
		Manifest: m, Sessions: 96, Seed: 7, ArrivalWindowSec: 20, Viewports: views, Bandwidth: bw,
		Fault: chaos.Rule{ErrorRate: 0.05, TruncateRate: 0.02, Latency: 20 * time.Millisecond, Jitter: 10 * time.Millisecond},
		Fleet: &swarm.FleetConfig{
			Origins: 4,
			Outages: []chaos.Down{{After: 5 * time.Second, For: 15 * time.Second, Every: 30 * time.Second}},
			Breaker: fleet.BreakerConfig{FailureThreshold: 2, OpenFor: 2 * time.Second},
		},
		ScoreEvery: 3,
	}
	for _, hedge := range []time.Duration{25 * time.Millisecond, 0} {
		cfg.Fetch.HedgeDelay = hedge
		walks0, errs0 := fleet.Checked()
		rep, err := swarm.Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		walks, errs := fleet.Checked()
		if walks-walks0 < int(rep.Summary.Chunks) {
			t.Fatalf("hedge delay %v: %d walks checked for %d chunks", hedge, walks-walks0, rep.Summary.Chunks)
		}
		if errs = errs[len(errs0):]; len(errs) > 0 {
			t.Fatalf("hedge delay %v: %d walks broke conservation; first: %v", hedge, len(errs), errs[0])
		}
		if rep.Summary.FleetHedges == 0 {
			t.Errorf("hedge delay %v: no hedges", hedge)
		}
	}
}
