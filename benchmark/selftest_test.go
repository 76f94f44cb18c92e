package main

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"
)

// TestSelf runs a shrunken pass of every workload, untraced and traced,
// and checks the shape of what comes out against BENCHMARK.json: every
// declared name is there once with a finite value and a unit, nothing
// undeclared is, and the header says what produced the numbers. It
// asserts no timing.
func TestSelf(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(sp.EndToEnd); n > 16 {
		t.Errorf("%d end-to-end metrics, at most 16 allowed", n)
	}
	if n := len(sp.PerLayer); n > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", n)
	}
	seen := map[string]bool{}
	setup := false
	for _, m := range append(append([]metricSpec{}, sp.EndToEnd...), sp.PerLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q with unit %q is outside the allowed alphabet", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("metric %q declared twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better = %q", m.Name, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end has no setup_s in s, lower is better")
	}
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("spec names %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}

	layerEmitted := map[string][]string{} // per-layer name → workloads that measured it
	for _, wl := range sp.Workloads {
		if _, ok := workloads[wl.Name]; !ok {
			t.Errorf("spec workload %q does not exist", wl.Name)
			continue
		}
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			o := options{
				workload: wl.Name, seed: 7, seconds: 0.05, trace: traced,
				outDir: t.TempDir(), size: tinySize, spec: sp, log: &out,
			}
			if err := runOne(o); err != nil {
				t.Fatalf("%s (traced=%v): %v\n%s", wl.Name, traced, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line: %v", wl.Name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (traced=%v): correct=%v failed=%d attempted=%d", wl.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			declared := sp.EndToEnd
			if traced {
				declared = sp.PerLayer
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s (traced=%v): %d metrics reported, %d declared", wl.Name, traced, len(res.Metrics), len(declared))
			}
			printed := map[string]int{} // names the workload itself emitted, one line each
			var hdr header
			for _, l := range lines[:len(lines)-1] {
				if rest, ok := strings.CutPrefix(l, "header: "); ok {
					if err := json.Unmarshal([]byte(rest), &hdr); err != nil {
						t.Errorf("%s: header: %v", wl.Name, err)
					}
				} else if f := strings.Fields(l); len(f) >= 3 && f[0] == wl.Name {
					printed[f[1]]++
				}
			}
			for _, d := range declared {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: metric %s reported as %+v (present=%v), want a finite value in %s", wl.Name, d.Name, v, ok, d.Unit)
				}
				if !traced && (printed[d.Name] != 1) {
					t.Errorf("%s: end-to-end %s emitted %d times, want once", wl.Name, d.Name, printed[d.Name])
				}
				if traced && printed[d.Name] > 0 {
					if printed[d.Name] != 1 {
						t.Errorf("%s: per-layer %s emitted %d times", wl.Name, d.Name, printed[d.Name])
					}
					layerEmitted[d.Name] = append(layerEmitted[d.Name], wl.Name)
				}
			}
			if hdr.Workload != wl.Name || hdr.Commit == "" || hdr.GoVersion == "" || hdr.NProc < 1 || hdr.GOMAXPROCS < 1 ||
				hdr.Clients < 1 || hdr.StoreFS == "" || hdr.Seed != 7 || hdr.Passes < 1 || hdr.Samples < 1 || hdr.Traced != traced {
				t.Errorf("%s (traced=%v): incomplete header %+v", wl.Name, traced, hdr)
			}
		}
	}
	for _, d := range sp.PerLayer {
		if len(layerEmitted[d.Name]) == 0 {
			t.Errorf("per-layer metric %s is declared but no workload measures it", d.Name)
		}
	}
}
