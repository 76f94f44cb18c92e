package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// exactRows are the end-to-end metrics computed in virtual time or from
// bytes: two runs of the same code on the same seed must report them
// identically, whatever the machine does.
var exactRows = map[string]bool{
	"pspnr_db_mean": true, "rebuffer_pct": true, "startup_s_mean": true, "manifest_kb": true,
}

// set is one full run: every workload's result, by workload name.
type set map[string]result

// runSet runs every workload in a fresh subprocess of this binary, so no
// workload inherits another's heap, caches or connections.
func runSet(o options, traced bool) (set, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := set{}
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	for _, wl := range o.spec.Workloads {
		args := []string{
			"-workload", wl.Name,
			"-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
			"-trace", traceArg,
			"-spec", o.specPath, "-out", o.outDir, "-tmp", o.tmpRoot,
		}
		cmd := exec.Command(exe, args...)
		var stdout bytes.Buffer
		cmd.Stdout = io.MultiWriter(&stdout, o.log)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("workload %s: %w", wl.Name, err)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return nil, fmt.Errorf("workload %s: last line is not a result: %w", wl.Name, err)
		}
		out[wl.Name] = res
	}
	return out, nil
}

// runAll is the default mode: the end-to-end set, then with -trace 1 the
// traced set, a summary table of each, and out/result.json.
func runAll(o options) error {
	e2e, err := runSet(o, false)
	if err != nil {
		return err
	}
	printTable(o.log, "end-to-end (tracing off)", o.spec, o.spec.EndToEnd, e2e)
	doc := map[string]any{"seed": o.seed, "seconds": o.seconds, "end_to_end": e2e}
	if o.trace {
		layers, err := runSet(o, true)
		if err != nil {
			return err
		}
		printTable(o.log, "per layer (traced run; blank = layer not on the workload's path)", o.spec, o.spec.PerLayer, layers)
		doc["per_layer"] = layers
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(o.outDir, "result.json")
	fmt.Fprintf(o.log, "\nwrote %s\n", path)
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printTable prints one row per metric, one column per workload.
func printTable(w io.Writer, title string, sp *spec, rows []metricSpec, s set) {
	fmt.Fprintf(w, "\n== %s ==\n%-34s %-8s", title, "metric", "unit")
	for _, wl := range sp.Workloads {
		fmt.Fprintf(w, " %16s", wl.Name)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-34s %-8s", r.Name, r.Unit)
		for _, wl := range sp.Workloads {
			if v := s[wl.Name].Metrics[r.Name].Value; v != 0 {
				fmt.Fprintf(w, " %16.4f", v)
			} else {
				fmt.Fprintf(w, " %16s", "")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-34s %-8s", "failed_frac", "")
	for _, wl := range sp.Workloads {
		r := s[wl.Name]
		fmt.Fprintf(w, " %16.6f", float64(r.Failed)/float64(max(r.Attempted, 1)))
	}
	fmt.Fprintln(w)
}

// runAgree runs the end-to-end set twice back to back and fails when the
// two disagree: a timing by more than its bound, a quality row or an op
// count at all.
func runAgree(o options) error {
	a, err := runSet(o, false)
	if err != nil {
		return err
	}
	b, err := runSet(o, false)
	if err != nil {
		return err
	}
	fmt.Fprintf(o.log, "\n== agreement of two runs (|b-a|/a; exact rows must be 0) ==\n%-18s %-8s", "metric", "bound")
	for _, wl := range o.spec.Workloads {
		fmt.Fprintf(o.log, " %16s", wl.Name)
	}
	fmt.Fprintln(o.log)
	var bad []string
	for _, r := range o.spec.EndToEnd {
		bound := r.Bound
		if exactRows[r.Name] {
			bound = 0
		}
		fmt.Fprintf(o.log, "%-18s %-8.3f", r.Name, bound)
		for _, wl := range o.spec.Workloads {
			va, vb := a[wl.Name].Metrics[r.Name].Value, b[wl.Name].Metrics[r.Name].Value
			d := math.Abs(vb-va) / math.Abs(va)
			mark := ""
			if d > bound {
				mark = "!"
				bad = append(bad, r.Name+"×"+wl.Name)
			}
			fmt.Fprintf(o.log, " %15.4f%1s", d, mark)
		}
		fmt.Fprintln(o.log)
	}
	for _, wl := range o.spec.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if ra.Failed != rb.Failed || ra.Failed != 0 {
			bad = append(bad, "failed×"+wl.Name)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("the two runs disagree on %s", strings.Join(bad, ", "))
	}
	fmt.Fprintln(o.log, "the two runs agree within every bound")
	return nil
}
