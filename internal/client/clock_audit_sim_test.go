package client_test

import (
	"testing"
	"time"

	"pano/internal/client"
	"pano/internal/player"
	"pano/internal/provider"
	"pano/internal/scene"
	"pano/internal/sim"
	"pano/internal/viewport"
)

// TestSimSessionNeverReadsWallClock is the clock audit for simulated
// sessions: sim.Run is RunSession over a link transport on a virtual
// clock, so with the real clock's time source replaced by a panicking
// reader a full session — loss ladder and pacing included — must
// complete, having advanced only virtual time.
func TestSimSessionNeverReadsWallClock(t *testing.T) {
	v := scene.Generate(scene.Tourism, 41, scene.Options{W: 240, H: 120, FPS: 10, DurationSec: 3})
	tr := viewport.Synthesize(v, 2, viewport.DefaultSynthesizeOpts())
	m, err := provider.Preprocess(v, []*viewport.Trace{tr}, provider.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	restore := client.SetWallNow(func() time.Time { panic("simulated session read the wall clock") })
	defer restore()

	cfg := sim.DefaultConfig()
	cfg.TileLossRate = 0.2
	cfg.Seed = 3
	res, err := sim.Run(m, tr, sim.ScaledLink(m, 0.5, 5), player.NewPanoPlanner(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerChunkPSPNR) != m.NumChunks() {
		t.Fatalf("scored %d of %d chunks", len(res.PerChunkPSPNR), m.NumChunks())
	}
	if res.StartupDelaySec <= 0 {
		t.Fatal("virtual clock never advanced")
	}
}
