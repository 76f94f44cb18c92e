// Command pano-bench runs the paper's evaluation experiments and prints
// each table/figure's rows.
//
// Usage:
//
//	pano-bench [-scale quick|paper] [-list] [-json-dir .] [experiment ids...]
//
// With no ids, every experiment runs in order. Ids match DESIGN.md §3:
// fig1 fig3 fig4 fig6 fig7 fig8 fig10 fig13 fig14 fig15 fig16a fig16b
// fig16c fig16d fig17a fig17b fig17c fig18a fig18b tab2 tab3 lut prune,
// plus the extensions joint3, crossuser, chaos (streaming under scripted
// fault profiles), trace (one traced sim session's per-phase
// breakdown), edge (sessions direct vs through the caching proxy),
// swarm (virtual-time populations), fleet (an origin shard lost
// mid-run), cluster (the obsd plane over five processes, an origin
// killed and revived) and live (the live pipeline and store);
// EXPERIMENTS.md says what each measures. fig14 writes its snapshot
// PNGs into ./fig14-out.
//
// Each experiment's result is also written as machine-readable JSON to
// BENCH_<id>.json under -json-dir (default the working directory; set
// -json-dir "" to disable), so the bench trajectory can be tracked
// across commits. The trace and cluster experiments' Chrome trace
// exports land beside it as <id>.perfetto.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pano/internal/experiments"
	"pano/internal/obs"
)

// benchRecord is the schema of a BENCH_<id>.json file. Commit,
// GoVersion, and Time stamp provenance so two result files can be
// compared across commits (see cmd/pano-benchdiff) without guessing
// which build produced which numbers.
type benchRecord struct {
	ID        string     `json:"id"`
	Scale     string     `json:"scale"`
	Title     string     `json:"title"`
	Header    []string   `json:"header"`
	Rows      [][]string `json:"rows"`
	Seconds   float64    `json:"seconds"`
	Commit    string     `json:"commit"`
	GoVersion string     `json:"go_version"`
	Time      string     `json:"time"`
}

func main() {
	scale := flag.String("scale", "quick", "dataset scale: quick or paper")
	list := flag.Bool("list", false, "list experiment ids and exit")
	jsonDir := flag.String("json-dir", ".", `directory for BENCH_<id>.json results ("" = disabled)`)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	var s experiments.Scale
	switch *scale {
	case "quick":
		s = experiments.QuickScale()
	case "paper":
		s = experiments.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "pano-bench: unknown scale %q (quick|paper)\n", *scale)
		os.Exit(2)
	}

	ids := flag.Args()
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	d := experiments.NewDataset(s)
	commit := obs.BuildCommit() // as in every binary's pano_build_info gauge
	exit := 0
	for _, id := range ids {
		start := time.Now()
		table, err := experiments.Run(d, id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pano-bench: %s: %v\n", id, err)
			exit = 1
			continue
		}
		elapsed := time.Since(start).Seconds()
		fmt.Print(table.String())
		fmt.Printf("(%s in %.1fs)\n\n", id, elapsed)
		if *jsonDir != "" {
			rec := benchRecord{
				ID: id, Scale: *scale, Title: table.Title,
				Header: table.Header, Rows: table.Rows, Seconds: elapsed,
				Commit: commit, GoVersion: runtime.Version(),
				Time: time.Now().UTC().Format(time.RFC3339),
			}
			if err := writeJSON(filepath.Join(*jsonDir, "BENCH_"+id+".json"), rec); err != nil {
				fmt.Fprintf(os.Stderr, "pano-bench: %s: %v\n", id, err)
				exit = 1
			}
			if table.Perfetto != nil {
				if err := os.WriteFile(filepath.Join(*jsonDir, id+".perfetto.json"), table.Perfetto, 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "pano-bench: %s: %v\n", id, err)
					exit = 1
				}
			}
		}
	}
	os.Exit(exit)
}

func writeJSON(path string, rec benchRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
