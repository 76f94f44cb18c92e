package sim

import (
	"pano/internal/abr"
	"sync"
	"testing"

	"pano/internal/manifest"
	"pano/internal/nettrace"
	"pano/internal/obs"
	"pano/internal/player"
	"pano/internal/provider"
	"pano/internal/scene"
	"pano/internal/trace"
	"pano/internal/viewport"
)

type fixtureT struct {
	video   *scene.Video
	traces  []*viewport.Trace
	pano    *manifest.Video
	uniform *manifest.Video
	whole   *manifest.Video
}

var (
	fxOnce sync.Once
	fx     fixtureT
)

func fixture(t testing.TB) *fixtureT {
	t.Helper()
	fxOnce.Do(func() {
		v := scene.Generate(scene.Sports, 23, scene.Options{W: 240, H: 120, FPS: 10, DurationSec: 8})
		var trs []*viewport.Trace
		for i := 0; i < 4; i++ {
			trs = append(trs, viewport.Synthesize(v, uint64(i+1), viewport.DefaultSynthesizeOpts()))
		}
		pano, err := provider.Preprocess(v, trs, provider.DefaultConfig())
		if err != nil {
			panic(err)
		}
		cfg := provider.DefaultConfig()
		cfg.Mode = provider.ModeUniform
		uni, err := provider.Preprocess(v, trs, cfg)
		if err != nil {
			panic(err)
		}
		cfg.Mode = provider.ModeWhole
		whole, err := provider.Preprocess(v, trs, cfg)
		if err != nil {
			panic(err)
		}
		fx = fixtureT{video: v, traces: trs, pano: pano, uniform: uni, whole: whole}
	})
	return &fx
}

// testLink returns a link at the given fraction of the fixture video's
// top-level bitrate (1.0 ≈ just enough for max quality on average).
func testLink(f *fixtureT, frac float64) *nettrace.Link {
	return ScaledLink(f.pano, frac, 5)
}

func TestRunProducesSaneResult(t *testing.T) {
	f := fixture(t)
	res, err := Run(f.pano, f.traces[0], testLink(f, 0.5), player.NewPanoPlanner(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.System != "pano" {
		t.Errorf("system = %q", res.System)
	}
	if len(res.PerChunkPSPNR) != f.pano.NumChunks() {
		t.Fatalf("per-chunk series length %d", len(res.PerChunkPSPNR))
	}
	if res.MeanPSPNR <= 0 || res.MeanPSPNR > 100 {
		t.Errorf("mean PSPNR = %v", res.MeanPSPNR)
	}
	if res.BufferingRatio < 0 || res.BufferingRatio > 100 {
		t.Errorf("buffering ratio = %v", res.BufferingRatio)
	}
	if res.BandwidthMbps <= 0 {
		t.Errorf("bandwidth = %v", res.BandwidthMbps)
	}
	if res.StartupDelaySec <= 0 {
		t.Errorf("startup delay = %v", res.StartupDelaySec)
	}
	if res.MOS() < 1 || res.MOS() > 5 {
		t.Errorf("MOS = %d", res.MOS())
	}
}

func TestMoreBandwidthNeverHurts(t *testing.T) {
	f := fixture(t)
	cfg := DefaultConfig()
	lo, err := Run(f.pano, f.traces[0], testLink(f, 0.15), player.NewPanoPlanner(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := Run(f.pano, f.traces[0], testLink(f, 2.0), player.NewPanoPlanner(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hi.MeanPSPNR < lo.MeanPSPNR {
		t.Errorf("PSPNR at 3 Mbps (%v) below 0.4 Mbps (%v)", hi.MeanPSPNR, lo.MeanPSPNR)
	}
	if hi.StallSec > lo.StallSec+0.5 {
		t.Errorf("more bandwidth increased stalls: %v vs %v", hi.StallSec, lo.StallSec)
	}
}

func TestPanoBeatsBaselinesOnQuality(t *testing.T) {
	// The headline result (Figures 1 and 15): at the same bandwidth,
	// Pano delivers higher perceived quality than the viewport-driven
	// baseline and the whole-video reference, averaged across users.
	f := fixture(t)
	cfg := DefaultConfig()
	cfg.Scene = f.video // pixel-ground-truth scoring, as in §8
	var panoSum, flareSum, wholeSum float64
	for _, tr := range f.traces {
		link := testLink(f, 0.3)
		p, err := Run(f.pano, tr, link, player.NewPanoPlanner(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		fl, err := Run(f.uniform, tr, link, player.NewViewportPlanner("flare"), cfg)
		if err != nil {
			t.Fatal(err)
		}
		w, err := Run(f.pano, tr, link, player.WholePlanner{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		panoSum += p.MeanPSPNR
		flareSum += fl.MeanPSPNR
		wholeSum += w.MeanPSPNR
	}
	n := float64(len(f.traces))
	if panoSum/n <= flareSum/n {
		t.Errorf("pano PSPNR %.2f not above flare %.2f", panoSum/n, flareSum/n)
	}
	if panoSum/n <= wholeSum/n {
		t.Errorf("pano PSPNR %.2f not above whole-video %.2f", panoSum/n, wholeSum/n)
	}
}

func TestViewNoiseDegradesGracefully(t *testing.T) {
	// Figure 16(c): quality decays with viewpoint noise but does not
	// collapse.
	f := fixture(t)
	prev := 200.0
	for _, noise := range []float64{0, 40, 120} {
		cfg := DefaultConfig()
		cfg.ViewNoiseDeg = noise
		cfg.Seed = 7
		res, err := Run(f.pano, f.traces[1], testLink(f, Trace1Frac), player.NewPanoPlanner(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.MeanPSPNR > prev+3 { // small tolerance: noise is random
			t.Errorf("PSPNR rose from %v to %v as noise grew to %v", prev, res.MeanPSPNR, noise)
		}
		prev = res.MeanPSPNR
	}
}

func TestBWErrorTolerated(t *testing.T) {
	f := fixture(t)
	base, err := Run(f.pano, f.traces[2], testLink(f, Trace1Frac), player.NewPanoPlanner(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.BWErrorFrac = 0.3
	noisy, err := Run(f.pano, f.traces[2], testLink(f, Trace1Frac), player.NewPanoPlanner(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 30% prediction error should cost quality or buffering, not crash
	// the session.
	if noisy.MeanPSPNR > base.MeanPSPNR+5 {
		t.Errorf("bandwidth error improved quality implausibly: %v vs %v", noisy.MeanPSPNR, base.MeanPSPNR)
	}
}

func TestEstimationTracksActual(t *testing.T) {
	// Figure 16(a) at zero noise: the client's PSPNR estimate should be
	// close to delivered quality most of the time.
	f := fixture(t)
	res, err := Run(f.pano, f.traces[0], testLink(f, Trace1Frac), player.NewPanoPlanner(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	within := 0
	for i := range res.PerChunkPSPNR {
		d := res.PerChunkPSPNR[i] - res.PerChunkEstPSPNR[i]
		if d < 0 {
			d = -d
		}
		if d < 15 {
			within++
		}
	}
	if frac := float64(within) / float64(len(res.PerChunkPSPNR)); frac < 0.6 {
		t.Errorf("only %.0f%% of estimates within 15 dB", frac*100)
	}
}

func TestBOLAControllerRuns(t *testing.T) {
	f := fixture(t)
	cfg := DefaultConfig()
	cfg.Controller = abr.NewBOLA(cfg.BufferTargetSec + 1)
	res, err := Run(f.pano, f.traces[0], testLink(f, 0.3), player.NewPanoPlanner(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanPSPNR <= 0 {
		t.Errorf("BOLA session PSPNR = %v", res.MeanPSPNR)
	}
	// BOLA is buffer-driven: it should also survive a starved link.
	starved, err := Run(f.pano, f.traces[0], testLink(f, 0.05), player.NewPanoPlanner(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if starved.BufferingRatio < 0 || starved.BufferingRatio > 100 {
		t.Errorf("buffering = %v", starved.BufferingRatio)
	}
}

func TestRunRejectsEmptyManifest(t *testing.T) {
	f := fixture(t)
	if _, err := Run(&manifest.Video{W: 10, H: 10, FPS: 30, ChunkSec: 1}, f.traces[0], testLink(f, 0.5), player.NewPanoPlanner(), DefaultConfig()); err == nil {
		t.Error("empty manifest should error")
	}
}

func TestBufferTargetTradesQualityForSafety(t *testing.T) {
	// Larger buffer targets (the {1,2,3} s sweep of Figure 15) should
	// not increase stalls.
	f := fixture(t)
	var prevStall = -1.0
	for _, target := range []float64{1, 3} {
		cfg := DefaultConfig()
		cfg.BufferTargetSec = target
		res, err := Run(f.pano, f.traces[3], testLink(f, 0.35), player.NewPanoPlanner(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if prevStall >= 0 && res.StallSec > prevStall+1.0 {
			t.Errorf("stalls grew from %v to %v with larger buffer", prevStall, res.StallSec)
		}
		prevStall = res.StallSec
	}
}

// BenchmarkSimRun is one Run over the golden fixture: the pano planner
// on trace1's link at the default config — the loop vod_session runs,
// as a per-layer row — once per tier of watching: bare, with a metrics
// registry, with metrics and an event log, and traced. A tier's cost
// over bare is what watching a session costs.
func BenchmarkSimRun(b *testing.B) {
	f := fixture(b)
	link := testLink(f, Trace1Frac)
	tiers := []struct {
		name  string
		watch func(*Config)
	}{
		{"bare", func(*Config) {}},
		{"metrics", func(c *Config) { c.Obs = obs.NewRegistry() }},
		{"metrics_events", func(c *Config) { c.Obs, c.Log = obs.NewRegistry(), obs.NewEventLog(nil, 0) }},
		{"traced", func(c *Config) { c.Trace = trace.New(trace.Config{Seed: 1}) }},
	}
	for _, tier := range tiers {
		b.Run(tier.name, func(b *testing.B) {
			cfg := DefaultConfig()
			tier.watch(&cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(f.pano, f.traces[0], link, player.NewPanoPlanner(), cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
