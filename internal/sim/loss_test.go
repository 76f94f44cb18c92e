package sim

import (
	"testing"

	"pano/internal/obs"
	"pano/internal/player"
)

func TestTileLossDegradesAndSkips(t *testing.T) {
	f := fixture(t)
	clean, err := Run(f.pano, f.traces[0], testLink(f, 0.5), player.NewPanoPlanner(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	cfg := DefaultConfig()
	cfg.TileLossRate = 0.3
	cfg.Seed = 7
	cfg.Obs = reg
	lossy, err := Run(f.pano, f.traces[0], testLink(f, 0.5), player.NewPanoPlanner(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lossy.DegradedTiles == 0 || lossy.SkippedTiles == 0 {
		t.Fatalf("30%% loss produced degraded=%d skipped=%d", lossy.DegradedTiles, lossy.SkippedTiles)
	}
	if lossy.TotalBits >= clean.TotalBits {
		t.Errorf("lost tiles still billed: %v bits vs clean %v", lossy.TotalBits, clean.TotalBits)
	}
	if lossy.MeanPSPNR >= clean.MeanPSPNR {
		t.Errorf("loss did not hurt quality: %v vs clean %v", lossy.MeanPSPNR, clean.MeanPSPNR)
	}
	if got := reg.CounterValue("pano_client_tiles_skipped_total"); got != float64(lossy.SkippedTiles) {
		t.Errorf("skipped counter %v, result has %d", got, lossy.SkippedTiles)
	}
	if got := reg.CounterValue("pano_client_tiles_degraded_total"); got != float64(lossy.DegradedTiles) {
		t.Errorf("degraded counter %v, result has %d", got, lossy.DegradedTiles)
	}
}

func TestTileLossDeterministic(t *testing.T) {
	f := fixture(t)
	cfg := DefaultConfig()
	cfg.TileLossRate = 0.2
	cfg.Seed = 11
	a, err := Run(f.pano, f.traces[1], testLink(f, 0.5), player.NewPanoPlanner(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(f.pano, f.traces[1], testLink(f, 0.5), player.NewPanoPlanner(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.DegradedTiles != b.DegradedTiles || a.SkippedTiles != b.SkippedTiles ||
		a.MeanPSPNR != b.MeanPSPNR || a.TotalBits != b.TotalBits {
		t.Errorf("same seed diverged:\n  %+v\n  %+v", a, b)
	}
}

func TestTileLossZeroIsIdentical(t *testing.T) {
	f := fixture(t)
	base, err := Run(f.pano, f.traces[2], testLink(f, 0.5), player.NewPanoPlanner(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.TileLossRate = 0
	cfg.Seed = 99 // must be irrelevant with the model off
	off, err := Run(f.pano, f.traces[2], testLink(f, 0.5), player.NewPanoPlanner(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if off.MeanPSPNR != base.MeanPSPNR || off.TotalBits != base.TotalBits ||
		off.DegradedTiles != 0 || off.SkippedTiles != 0 {
		t.Errorf("disabled loss model changed the session:\n  %+v\n  %+v", base, off)
	}
	for k := range base.PerChunkAlloc {
		for i := range base.PerChunkAlloc[k] {
			if base.PerChunkAlloc[k][i] != off.PerChunkAlloc[k][i] {
				t.Fatalf("chunk %d tile %d alloc differs", k, i)
			}
		}
	}
}
