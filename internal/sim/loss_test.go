package sim

import (
	"math"
	"testing"
	"time"

	"pano/internal/nettrace"
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

// TestLostTileRefetchPaysRTT: a lost tile's lowest-rung re-fetch is a
// fresh request, as Client.Stream sends it, so it pays its own RTT; the
// chunk's turn pays one more, once. Chunk 0 is planned before anything
// is downloaded, so its plan, its losses and its transfer are the same
// at every RTT, and on a flat link its fetch — the startup delay — is
// exactly r longer per request it sends at RTT r: the turn and each
// re-fetch.
func TestLostTileRefetchPaysRTT(t *testing.T) {
	f := fixture(t)
	flat := &nettrace.Trace{Mbps: make([]float64, 60)}
	for i := range flat.Mbps {
		flat.Mbps[i] = 0.3 * RateForLevel(f.pano, 0) / 1e6
	}
	const r = 50 * time.Millisecond
	startup := map[time.Duration]time.Duration{}
	refetches := 0
	for _, rtt := range []time.Duration{0, r} {
		cfg := DefaultConfig()
		cfg.TileLossRate, cfg.Seed = 0.1, 7
		cfg.Log = obs.NewEventLog(nil, 4096)
		res, err := Run(f.pano, f.traces[0], &nettrace.Link{Trace: flat, RTTSec: rtt.Seconds()}, player.NewPanoPlanner(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		startup[rtt] = time.Duration(math.Round(res.StartupDelaySec * 1e9))
		// A degraded tile's re-fetch reached the link; a lost re-fetch
		// (a skipped tile) did not.
		n := 0
		for _, e := range cfg.Log.Find("tile_degraded") {
			if e.Str("chunk") == "0" {
				n++
			}
		}
		if rtt == 0 {
			refetches = n
		} else if n != refetches {
			t.Fatalf("chunk 0 re-fetched %d tiles at RTT %v, %d at 0", n, rtt, refetches)
		}
	}
	if refetches == 0 {
		t.Fatal("no planned tile of chunk 0 was lost and re-fetched; pick another seed")
	}
	if got, want := startup[r]-startup[0], r*time.Duration(1+refetches); got != want {
		t.Errorf("startup at RTT %v is %v later than at 0, want %v (the turn and %d re-fetches)",
			r, got, want, refetches)
	}
}
