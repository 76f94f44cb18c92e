package swarm

import (
	"fmt"
	"math"
	"testing"
	"time"

	"pano/internal/client"
	"pano/internal/jnd"
	"pano/internal/nettrace"
	"pano/internal/player"
	"pano/internal/sim"
)

// TestOneSessionMatchesSim is the equivalence property: a 1-session
// swarm over a flat-bandwidth trace must reproduce sim.Run's per-chunk
// level decisions exactly and its per-chunk PSPNR within 1e-9, at zero
// RTT and at the link's default 50 ms. Both sides stream over the same
// transport, client.VirtualNet, so what this pins is the swarm's session
// wiring: its session parameters, buffer model, clock and manifest GET
// (which sim's free manifest skips), and netem's delegation to the
// shared network. The manifest GET shifts the swarm's timeline; a flat
// trace keeps the decisions and the scores where sim's are.
func TestOneSessionMatchesSim(t *testing.T) {
	for _, rtt := range []float64{0, 0.05} {
		t.Run(fmt.Sprintf("rtt=%gs", rtt), func(t *testing.T) { oneSessionMatchesSim(t, rtt) })
	}
}

func oneSessionMatchesSim(t *testing.T, rtt float64) {
	f := fixture(t)
	m := f.pano
	tr := f.traces[0]

	// Flat link at 40% of the top encoding rate: download time is then
	// linear in bits and the same at every start time.
	flat := &nettrace.Trace{Mbps: make([]float64, 60)}
	for i := range flat.Mbps {
		flat.Mbps[i] = 0.4 * m.ChunkBits(0, 0) / m.ChunkSec / 1e6
	}
	link := &nettrace.Link{Trace: flat, RTTSec: rtt}

	simRes, err := sim.Run(m, tr, link, player.NewPanoPlanner(), sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	swarmCfg := Config{
		Manifest:  m,
		Sessions:  1,
		Workers:   1,
		Seed:      42,
		Viewports: f.traces[:1],
		Bandwidth: []*nettrace.Trace{flat},
		Planner:   player.NewPanoPlanner(),
		Fetch: client.FetchPolicy{
			// sim.Run's deadlines: out of reach, so the ladder never
			// intervenes.
			AttemptTimeout:    time.Hour,
			MinAttemptTimeout: time.Hour,
		},
	}
	rep, results := runKeeping(t, swarmCfg, rtt)
	if rep.Summary.Completed != 1 || results[0] == nil {
		t.Fatalf("swarm session failed: %+v", rep.Summary)
	}
	res := results[0]
	if len(res.Chunks) != len(simRes.PerChunkAlloc) {
		t.Fatalf("chunk counts: swarm %d, sim %d", len(res.Chunks), len(simRes.PerChunkAlloc))
	}

	prof := jnd.Default()
	est := player.NewEstimator()
	for k, cr := range res.Chunks {
		want := simRes.PerChunkAlloc[k]
		if len(cr.Levels) != len(want) {
			t.Fatalf("chunk %d: tile counts %d vs %d", k, len(cr.Levels), len(want))
		}
		for ti := range want {
			if cr.Levels[ti] != want[ti] {
				t.Fatalf("chunk %d tile %d: swarm level %d, sim level %d",
					k, ti, cr.Levels[ti], want[ti])
			}
		}
		got := sim.TablePSPNR(m, tr, &cr, est, prof)
		if diff := math.Abs(got - simRes.PerChunkPSPNR[k]); diff > 1e-9 {
			t.Fatalf("chunk %d: PSPNR %v vs sim %v (diff %g)", k, got, simRes.PerChunkPSPNR[k], diff)
		}
	}
}
