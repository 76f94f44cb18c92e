// Command benchmark is the repo's one performance benchmark: five
// workloads over one seeded bench video, eleven end-to-end metrics
// measured with tracing off, and a traced run that attributes time to
// single layers. BENCHMARK.json at the repo root names every metric;
// README.md in this directory says what each one means and which
// workload it should move on.
//
//	go run ./benchmark                       all workloads, each in its own subprocess
//	go run ./benchmark -trace 1              the same, then the traced per-layer run
//	go run ./benchmark -agree                two full sets back to back, spread table
//	go run ./benchmark -workload serve_hot   one workload in this process (what the driver runs)
//
// All HTTP traffic crosses the host loopback between goroutines of one
// process: link rate and wire latency are not measured.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run only this workload, in this process (default: all, one subprocess each)")
	fs.Uint64Var(&o.seed, "seed", 2019, "seed for viewers, links, request order and fault draws")
	fs.Float64Var(&o.seconds, "seconds", 0, "measured seconds per workload (default: run_seconds from BENCHMARK.json)")
	traceFlag := fs.Int("trace", 0, "1 = traced run: per-layer metrics and a Chrome trace instead of end-to-end metrics")
	agree := fs.Bool("agree", false, "run the full set twice and fail if the two disagree by more than the bounds")
	fs.StringVar(&o.specPath, "spec", "BENCHMARK.json", "metric declarations")
	fs.StringVar(&o.outDir, "out", "benchmark/out", "directory for result.json and trace files")
	fs.StringVar(&o.tmpRoot, "tmp", "", "parent of the store directories (default: /dev/shm when writable, else .bench_build/tmp)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	o.trace = *traceFlag != 0
	o.size = fullSize
	o.log = stdout

	sp, err := loadSpec(o.specPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	o.spec = sp
	if o.seconds <= 0 {
		o.seconds = float64(sp.RunSeconds)
	}

	switch {
	case o.workload != "":
		err = runOne(o)
	case *agree:
		err = runAgree(o)
	default:
		err = runAll(o)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}
