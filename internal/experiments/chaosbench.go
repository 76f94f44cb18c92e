package experiments

import (
	"context"
	"fmt"
	"time"

	"pano/internal/chaos"
	"pano/internal/client"
	"pano/internal/obs"
	"pano/internal/provider"
	"pano/internal/testbed"
)

// ChaosProfileResult summarizes streaming under one fault profile.
type ChaosProfileResult struct {
	Profile  string
	Sessions int
	// Aborts counts sessions that returned an error — the robustness
	// contract is that this stays 0 for every server-side fault profile.
	Aborts int
	// RetriesBounded is false if any chunk exceeded the ladder's attempt
	// budget (tiles x 2 rungs x MaxAttempts failed attempts).
	RetriesBounded  bool
	TotalRetries    int
	DegradedFrac    float64
	SkippedFrac     float64
	MeanRebufferSec float64
	MeanEstPSPNR    float64
	InjectedErrors  float64
	InjectedLatency float64
}

// ChaosBenchResult is the BENCH_chaos.json payload.
type ChaosBenchResult struct {
	MaxAttempts int
	Profiles    []ChaosProfileResult
}

// chaosProfiles are the scripted fault schedules the bench streams
// under. Latencies are tiny (loopback-scaled) so the experiment stays
// fast; the *ratios* — error rate, flaky duty cycle — match deployment
// shapes.
func chaosProfiles() []struct {
	name string
	p    chaos.Profile
} {
	return []struct {
		name string
		p    chaos.Profile
	}{
		{"off", chaos.Profile{}},
		// The acceptance profile: 10% tile errors plus injected latency.
		{"tile-error-10pct", chaos.Profile{
			Seed: 2019,
			Tile: chaos.Rule{ErrorRate: 0.10, Latency: 200 * time.Microsecond, Jitter: 200 * time.Microsecond},
		}},
		{"flaky-window", chaos.Profile{
			Seed:   2019,
			Tile:   chaos.Rule{ErrorRate: 0.5, Latency: 200 * time.Microsecond},
			Window: chaos.Window{Period: 10, Flaky: 3},
		}},
	}
}

// ChaosBench streams many real HTTP sessions against a chaos-wrapped
// server, one batch per fault profile, and verifies the robustness
// contract: zero aborted sessions, retries within the ladder's bound,
// and quality that degrades gracefully instead of failing. The "off"
// profile is the healthy baseline.
func ChaosBench(d *Dataset) (ChaosBenchResult, *Table, error) {
	m, err := d.Manifest(d.TracedIndices()[0], provider.ModePano)
	if err != nil {
		return ChaosBenchResult{}, nil, err
	}
	pol := testbed.LoopbackPolicy()
	sessions := 10 + 10*d.Scale.Users
	if sessions > 50 {
		sessions = 50
	}
	rateCap := testbed.RateCap(m)

	res := ChaosBenchResult{MaxAttempts: pol.MaxAttempts}
	tilesPerChunk := len(m.Chunks[0].Tiles)
	for _, cp := range chaosProfiles() {
		// One registry takes the injector's counters and the sessions'.
		reg := obs.NewRegistry()
		tb := testbed.New()
		origin, err := tb.AddOrigin(testbed.OriginConfig{Manifest: m, Chaos: chaos.New(cp.p, chaos.WithObs(reg))})
		if err != nil {
			return res, nil, err
		}

		n := sessions
		if !cp.p.Enabled() {
			n = min(sessions, 5) // healthy baseline needs fewer samples
		}
		pr := ChaosProfileResult{Profile: cp.name, Sessions: n, RetriesBounded: true}
		var tiles, degraded, skipped int
		var pspnrSum, rebufSum float64
		for u := 0; u < n; u++ {
			p := pol
			p.Seed = uint64(u + 1)
			tr := d.Traces(d.TracedIndices()[0])[u%d.Scale.Users]
			out, serr := tb.Client(origin.URL).Stream(context.Background(), tr, client.StreamConfig{
				MaxRateBps: rateCap,
				Fetch:      p,
				Obs:        reg,
			})
			if serr != nil {
				pr.Aborts++
				continue
			}
			for _, ch := range out.Chunks {
				if ch.Retries > len(ch.Levels)*2*pol.MaxAttempts {
					pr.RetriesBounded = false
				}
			}
			tiles += len(out.Chunks) * tilesPerChunk
			degraded += out.DegradedTiles
			skipped += out.SkippedTiles
			pr.TotalRetries += out.TotalRetries
			pspnrSum += out.MeanEstPSPNR()
			rebufSum += out.RebufferSec
		}
		tb.Close()
		if done := n - pr.Aborts; done > 0 {
			pr.MeanEstPSPNR = pspnrSum / float64(done)
			pr.MeanRebufferSec = rebufSum / float64(done)
		}
		if tiles > 0 {
			pr.DegradedFrac = float64(degraded) / float64(tiles)
			pr.SkippedFrac = float64(skipped) / float64(tiles)
		}
		pr.InjectedErrors = reg.CounterValue("pano_chaos_injections_total",
			obs.L("endpoint", "tile"), obs.L("kind", "error"))
		pr.InjectedLatency = reg.CounterValue("pano_chaos_injections_total",
			obs.L("endpoint", "tile"), obs.L("kind", "latency"))
		res.Profiles = append(res.Profiles, pr)
	}

	t := &Table{
		Title: fmt.Sprintf("Streaming under chaos (%d sessions/profile, ladder %d attempts/rung)",
			sessions, pol.MaxAttempts),
		Header: []string{"profile", "sessions", "aborts", "retries", "bounded",
			"degraded_pct", "skipped_pct", "rebuffer_sec", "mean_est_pspnr_db", "injected_errors"},
	}
	for _, pr := range res.Profiles {
		t.Rows = append(t.Rows, []string{
			pr.Profile,
			fmt.Sprintf("%d", pr.Sessions),
			fmt.Sprintf("%d", pr.Aborts),
			fmt.Sprintf("%d", pr.TotalRetries),
			fmt.Sprintf("%v", pr.RetriesBounded),
			f2(100 * pr.DegradedFrac),
			f2(100 * pr.SkippedFrac),
			f2(pr.MeanRebufferSec),
			f1(pr.MeanEstPSPNR),
			f0(pr.InjectedErrors),
		})
	}
	return res, t, nil
}
