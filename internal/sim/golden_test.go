package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pano/internal/abr"
	"pano/internal/manifest"
	"pano/internal/player"
)

const goldenPath = "testdata/run_golden.json"

// goldenSession is one Run outcome as testdata/run_golden.json stores
// it. Go's JSON encoding of float64 round-trips exactly, so equality
// checks below are meaningful.
type goldenSession struct {
	Name       string    `json:"name"`
	Levels     [][]int   `json:"levels"`
	PSPNR      []float64 `json:"pspnr_db"`
	EstPSPNR   []float64 `json:"est_pspnr_db"`
	StallSec   float64   `json:"stall_sec"`
	StartupSec float64   `json:"startup_sec"`
	TotalBits  float64   `json:"total_bits"`
	Degraded   int       `json:"degraded_tiles"`
	Skipped    int       `json:"skipped_tiles"`
}

// goldenSessions runs the matrix the golden pins: planners {pano,
// viewport-driven, whole-video} × the two paper links × the five
// Config shapes that reach distinct code in the session loop.
func goldenSessions(t *testing.T) []goldenSession {
	t.Helper()
	f := fixture(t)
	planners := []struct {
		name string
		m    *manifest.Video
		mk   func() player.Planner
	}{
		{"pano", f.pano, func() player.Planner { return player.NewPanoPlanner() }},
		{"viewport", f.uniform, func() player.Planner { return player.NewViewportPlanner("flare") }},
		{"whole", f.whole, func() player.Planner { return player.WholePlanner{} }},
	}
	links := []struct {
		name string
		frac float64
	}{{"trace1", Trace1Frac}, {"trace2", Trace2Frac}}
	configs := []struct {
		name string
		tune func(*Config)
	}{
		{"default", func(*Config) {}},
		{"viewnoise10", func(c *Config) { c.ViewNoiseDeg = 10 }},
		{"bwerror0.3", func(c *Config) { c.BWErrorFrac = 0.3 }},
		{"tileloss0.1", func(c *Config) { c.TileLossRate = 0.1 }},
		{"bola", func(c *Config) { c.Controller = abr.NewBOLA(c.BufferTargetSec + 1) }},
	}
	var out []goldenSession
	for _, p := range planners {
		for _, l := range links {
			for _, c := range configs {
				cfg := DefaultConfig()
				cfg.Seed = 7
				c.tune(&cfg)
				res, err := Run(p.m, f.traces[0], testLink(f, l.frac), p.mk(), cfg)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", p.name, l.name, c.name, err)
				}
				g := goldenSession{
					Name:       fmt.Sprintf("%s/%s/%s", p.name, l.name, c.name),
					PSPNR:      res.PerChunkPSPNR,
					EstPSPNR:   res.PerChunkEstPSPNR,
					StallSec:   res.StallSec,
					StartupSec: res.StartupDelaySec,
					TotalBits:  res.TotalBits,
					Degraded:   res.DegradedTiles,
					Skipped:    res.SkippedTiles,
				}
				for _, a := range res.PerChunkAlloc {
					lv := make([]int, len(a))
					for i, x := range a {
						lv[i] = int(x)
					}
					g.Levels = append(g.Levels, lv)
				}
				out = append(out, g)
			}
		}
	}
	return out
}

// TestRunGolden pins Run against sessions captured from the standalone
// simulator loop, before Run became client.RunSession over a link
// transport. Delivered levels, ladder counts and bits must match
// exactly and delivered PSPNR within 1e-9. Timings get 1 µs: the shared
// loop keeps time as time.Duration on a virtual clock, so every chunk
// boundary is quantised to a nanosecond where the old loop carried
// float64 seconds — the only divergence admitted. The client's
// plan-time PSPNR estimate is a function of one of those timings (the
// playhead the viewpoint is extrapolated from, through the trace's
// instantaneous speed), and a few nanoseconds of playhead move it by up
// to 5e-6 dB; it gets 1e-5.
//
// To regenerate after an intended behaviour change, delete the golden
// file and run the test once: it rewrites the file and fails.
func TestRunGolden(t *testing.T) {
	got := goldenSessions(t)
	raw, err := os.ReadFile(goldenPath)
	if errors.Is(err, os.ErrNotExist) {
		out, merr := json.MarshalIndent(got, "", " ")
		if merr != nil {
			t.Fatal(merr)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing; wrote it from this run — review and commit it", goldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenSession
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d sessions, golden has %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.Name {
			t.Fatalf("session %d is %q, golden has %q", i, g.Name, w.Name)
		}
		if len(g.Levels) != len(w.Levels) {
			t.Errorf("%s: %d chunks, want %d", w.Name, len(g.Levels), len(w.Levels))
			continue
		}
		for k := range w.Levels {
			if fmt.Sprint(g.Levels[k]) != fmt.Sprint(w.Levels[k]) {
				t.Errorf("%s chunk %d: levels %v, want %v", w.Name, k, g.Levels[k], w.Levels[k])
			}
			if d := math.Abs(g.PSPNR[k] - w.PSPNR[k]); d > 1e-9 {
				t.Errorf("%s chunk %d: PSPNR %v, want %v", w.Name, k, g.PSPNR[k], w.PSPNR[k])
			}
			if d := math.Abs(g.EstPSPNR[k] - w.EstPSPNR[k]); d > 1e-5 {
				t.Errorf("%s chunk %d: estimated PSPNR %v, want %v", w.Name, k, g.EstPSPNR[k], w.EstPSPNR[k])
			}
		}
		if g.TotalBits != w.TotalBits {
			t.Errorf("%s: total bits %v, want %v", w.Name, g.TotalBits, w.TotalBits)
		}
		if g.Degraded != w.Degraded || g.Skipped != w.Skipped {
			t.Errorf("%s: degraded/skipped %d/%d, want %d/%d", w.Name, g.Degraded, g.Skipped, w.Degraded, w.Skipped)
		}
		if d := math.Abs(g.StallSec - w.StallSec); d > 1e-6 {
			t.Errorf("%s: stall %v s, want %v", w.Name, g.StallSec, w.StallSec)
		}
		if d := math.Abs(g.StartupSec - w.StartupSec); d > 1e-6 {
			t.Errorf("%s: startup %v s, want %v", w.Name, g.StartupSec, w.StartupSec)
		}
	}
}

// otherPlannersSHA256 is the digest of the golden file's viewport/* and
// whole/* sessions, byte for byte as the file stores them, taken before
// abr.AllocatePruned's search was bounded. Bounding it re-optimised the
// plans the old search had thinned, so the pano/trace2/* sessions were
// re-captured (EXPERIMENTS.md, "What bounding the search changed"); the
// sessions that never call the allocator must not have moved with them.
// A change that intends to move them replaces this digest and says why.
const otherPlannersSHA256 = "7204d3b09a721cf1439cf4dbe6c62f175fd8b34befc356f4be08ef208d8d275d"

func TestRunGoldenOtherPlannersUntouched(t *testing.T) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var sessions []json.RawMessage
	if err := json.Unmarshal(raw, &sessions); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	others := 0
	for _, s := range sessions {
		var head struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal(s, &head); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(head.Name, "pano/") {
			h.Write(s)
			others++
		}
	}
	if others != 20 {
		t.Fatalf("%d sessions of other planners, want 20", others)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != otherPlannersSHA256 {
		t.Errorf("viewport/* and whole/* golden sessions digest %s, want %s", got, otherPlannersSHA256)
	}
}
