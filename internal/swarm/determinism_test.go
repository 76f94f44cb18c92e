package swarm

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"pano/internal/chaos"
	"pano/internal/fleet"
	"pano/internal/nettrace"
)

// summaryJSON runs the swarm and marshals the Summary — the part of the
// Report that must be a pure function of Config (wall-clock figures
// live outside it).
func summaryJSON(t *testing.T, cfg Config) []byte {
	t.Helper()
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rep.Summary)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestDeterminismAcrossRunsAndWorkers is the lockdown: the same seed
// must produce byte-identical summaries run-to-run and at every worker
// count, and a different seed must not. The suite runs under -race in
// `make swarm`, so any cross-session sharing that would break
// determinism also trips the race detector here.
func TestDeterminismAcrossRunsAndWorkers(t *testing.T) {
	f := fixture(t)
	base := baseConfig(f)
	base.Sessions = 96
	// Exercise the full machinery: faults, backoff jitter, sampled
	// scoring.
	base.Fault = chaos.Rule{ErrorRate: 0.05, TruncateRate: 0.02, Latency: 20 * time.Millisecond, Jitter: 10 * time.Millisecond}
	base.ScoreEvery = 3

	// Fleet mode layers ring failover, per-session breakers, a mid-run
	// shard outage, and modelled hedging on top — all of which must stay
	// just as deterministic.
	fleetCfg := base
	fleetCfg.Fleet = &FleetConfig{
		Origins: 4,
		Outages: []chaos.Down{{After: 5 * time.Second, For: 15 * time.Second, Every: 30 * time.Second}},
		Breaker: fleet.BreakerConfig{FailureThreshold: 2, OpenFor: 2 * time.Second},
	}
	fleetCfg.Fetch.HedgeDelay = 100 * time.Millisecond

	for name, cfg := range map[string]Config{"single-origin": base, "fleet": fleetCfg} {
		t.Run(name, func(t *testing.T) {
			workers := []int{1, 4, runtime.GOMAXPROCS(0)}
			var ref []byte
			for _, w := range workers {
				c := cfg
				c.Workers = w
				first := summaryJSON(t, c)
				second := summaryJSON(t, c)
				if !bytes.Equal(first, second) {
					t.Fatalf("workers=%d: two identical runs differ:\n%s\n%s", w, first, second)
				}
				if ref == nil {
					ref = first
				} else if !bytes.Equal(ref, first) {
					t.Fatalf("workers=%d differs from workers=%d:\n%s\n%s", w, workers[0], first, ref)
				}
			}

			diff := cfg
			diff.Seed = cfg.Seed + 1
			if bytes.Equal(ref, summaryJSON(t, diff)) {
				t.Fatal("different seeds produced identical summaries")
			}
		})
	}
}

// TestSessionParamsPure guards the root of determinism: per-session
// parameters depend only on (Seed, id), never on execution order.
func TestSessionParamsPure(t *testing.T) {
	f := fixture(t)
	cfg := baseConfig(f)
	if err := cfg.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 100; id++ {
		a, b := sessionParams(&cfg, id), sessionParams(&cfg, id)
		if a != b {
			t.Fatalf("id %d: %+v != %+v", id, a, b)
		}
		if a.arrival < 0 || a.arrival >= nettrace.Nanos(cfg.ArrivalWindowSec) {
			t.Fatalf("id %d: arrival %v outside [0,%v)", id, a.arrival, cfg.ArrivalWindowSec)
		}
	}
	// Neighbouring ids draw decorrelated streams.
	if sessionParams(&cfg, 1) == sessionParams(&cfg, 2) {
		t.Fatal("adjacent sessions drew identical params")
	}
}

// TestDefaultPlannerSummaryPinned holds a population still across
// allocator changes: the Summary of 2 000 fleet-mode sessions under the
// benchmark's fault rule and outage shape, planned by the package
// default. The digest was captured at b495105, when that default was the
// greedy allocator; the §6.1 search that replaced it returns the same
// plans at this operating point, where the MPC hands every chunk the
// all-lowest budget. A PR that moves the swarm's operating point
// re-pins it with the before/after Summary in CHANGES.md.
//
// Re-pinned once since, for one cause: the manifest's binary wire
// encoding is a third of the JSON it replaced, so every session's
// manifest GET ends earlier (mean_startup_sec 23.52 → 9.64) and the
// whole timeline shifts against the outage window — virtual_sec,
// concurrency, rebuffer, retries and the fleet counters follow. The
// plans did not move: sessions, completed, errored, chunks and all four
// PSPNR cells are the digits of the old pin, and bytes differs by the 69
// of the two tiles the old timeline skipped (skipped_tiles 2 → 0).
//
// Re-pinned a second time, when the swarm's fleet twin started walking
// fleet.Ladder, the policy fleet.Fetch runs: rounds with backoff, hedges
// admitted through Admit and never on a probe, the backup chosen without
// the outage schedule, failovers counted as the fleet counts them. The
// plans did not move — chunks, bytes and all four PSPNR cells are
// unchanged — while retries (513 → 468), the fleet counters, the shard
// loads and, in the fifth digit, rebuffer and startup did; CHANGES.md
// attributes each cell.
//
// Re-pinned a third time, when the manifest went to binary32 floats
// (DESIGN.md §4): its GET is half the bytes, so mean_startup_sec fell
// 9.64 → 6.20 and the timeline shifted against the outage window again
// (virtual_sec 67.8 → 59.7; rebuffer, retries, concurrency, degraded
// tiles and the fleet counters follow). The plans did not move: chunks
// and bytes are unchanged, and the four PSPNR cells moved in the eighth
// digit, through the rounded lookup table.
//
// Re-pinned a fourth time, when a chunk's planned requests started
// going out as one pipelined turn per (chunk, shard) and netem started
// charging the link RTT once per turn instead of once per request:
// rebuffer_ratio_pct 60.41 → 24.34, mean_startup_sec 6.20 → 4.93,
// virtual_sec 59.7 → 50.1, retries 369 → 10, degraded tiles 1 → 0, and
// the fleet counters (hedges 6 753 → 1 653, failovers 29 303 → 22 194,
// budget denials 918 → 12) and shard loads follow. The plans did not
// move: chunks, bytes and all four PSPNR cells are the digits of the
// old pin.
//
// Re-pinned a fifth time, when the fleet moved behind the front: a
// session pays one pipelined turn per chunk to one front, as
// Client.Stream does to an edge, and each tile's ladder walk runs behind
// it, its duration the tile's server delay, a back-leg request costing
// only its origin's delay. rebuffer_ratio_pct 24.34 → 10.49,
// mean_startup_sec 4.93 → 4.64, virtual_sec 50.1 → 47.4, retries 10 → 0
// (origin faults are failed over behind the front), hedges 1 653 → 0 (no
// origin is slower than the 150 ms hedge delay), budget denials 12 → 0,
// failovers 22 194 → 21 077; origin_requests now counts the back leg's.
// Plans moved where the timeline did: mean PSPNR 36.56 → 37.46 with
// p10/p50/p90 unchanged, bytes +0.4 %.
//
// Re-pinned a sixth time, when virtual time went to one base, int64
// nanoseconds: a float span now rounds to the nearest nanosecond
// (nettrace.Nanos) where it was truncated, and only where a trace is
// integrated or a fault rule prices a transfer. Every session ends a few
// nanoseconds later: mean_startup_sec +1.0 ns, mean_rebuffer_sec +3.0 ns,
// virtual_sec 47.422397614 → 47.42239762 (+6 ns), and rebuffer_ratio_pct,
// mean_concurrency and origin_mean_rps follow in the eighth digit or
// later. Nothing else moved: chunks, bytes, all four PSPNR cells, peak
// concurrency, origin requests and the fleet counters are the digits of
// the old pin.
func TestDefaultPlannerSummaryPinned(t *testing.T) {
	cfg := benchmarkShape(fixture(t))
	cfg.Sessions = 2000
	raw := summaryJSON(t, cfg)
	const want = "d856efe0430bc82385718c0dc7a5d6baa3670c45977439312410b5978b5f49f0"
	if got := sha256.Sum256(raw); hex.EncodeToString(got[:]) != want {
		t.Errorf("summary sha256 %x, want %s:\n%s", got, want, raw)
	}
}
