package telemetry_test

import (
	"testing"
	"time"

	"pano/internal/obs"
	"pano/internal/player"
	"pano/internal/provider"
	"pano/internal/scene"
	"pano/internal/sim"
	"pano/internal/telemetry"
	"pano/internal/viewport"
)

// BenchmarkSamplerStep measures one sampler tick — scrape the registry
// into the windowed store, then evaluate the SLOs — on the registry a
// player process has after one healthy and one starved, lossy session.
// The windows are filled first, so every timed tick also evicts. It is
// an external test package because sim reaches telemetry through
// client → server.
func BenchmarkSamplerStep(b *testing.B) {
	v := scene.Generate(scene.Sports, 23, scene.Options{W: 240, H: 120, FPS: 10, DurationSec: 4})
	tr := viewport.Synthesize(v, 1, viewport.DefaultSynthesizeOpts())
	m, err := provider.Preprocess(v, []*viewport.Trace{tr}, provider.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	reg := obs.NewRegistry()
	evlog := obs.NewEventLog(nil, 0)
	evlog.ObserveDrops(reg)
	for i, link := range []struct{ scale, loss float64 }{{1.5, 0}, {0.05, 0.1}} {
		seed := uint64(i + 1)
		if _, err := sim.Run(m, tr, sim.ScaledLink(m, link.scale, seed), player.NewPanoPlanner(), sim.Config{
			Seed: seed, Obs: reg, TileLossRate: link.loss,
		}); err != nil {
			b.Fatal(err)
		}
	}
	slos, err := telemetry.ParseSLOs(
		"rebuffer<=0.05@10s/40s!1.5/3;pspnr_floor=off;tile_p99=off;edge_hit=off;abort=off")
	if err != nil {
		b.Fatal(err)
	}
	const window = time.Hour // what the sampler retains: fill every ring
	smp := telemetry.New(telemetry.Config{
		Obs: reg, SLOs: slos, Log: evlog, Interval: time.Second,
	})
	now := time.Unix(1700000000, 0)
	for i := 0; i < int(window/time.Second); i++ {
		smp.Step(now)
		now = now.Add(time.Second)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		smp.Step(now)
		now = now.Add(time.Second)
	}
	b.ReportMetric(float64(smp.Store().Len()), "series")
}
