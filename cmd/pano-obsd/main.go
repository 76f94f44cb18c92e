// Command pano-obsd runs the cluster observability plane: it federates
// the /metrics endpoints of every pano process (origins, edges,
// players), evaluates the stock SLOs against the merged fleet-wide
// series, and assembles cross-process traces into single timelines.
//
// Usage:
//
//	pano-obsd -scrape edge0=http://127.0.0.1:8361,origin0=http://127.0.0.1:8360
//	          [-addr :8380] [-interval 2s] [-timeout 2s]
//	          [-slo default] [-log]
//
// Endpoints:
//
//	/metrics       federated exposition: cluster rollup (counters summed,
//	               histograms bucket-merged, gauges by per-family hint),
//	               pano_federation_* health, and every per-instance series
//	               labelled instance=
//	/debug/slo     fleet-wide SLO burn-rate state as JSON
//	/debug/dash    live cluster dashboard (rollup + per-instance panels)
//	/debug/traces  cross-process traces assembled on demand from every
//	               target's /debug/traces, joined on trace ID
//	/healthz       liveness
//
// A target that stops answering is marked stale (pano_federation_
// target_up 0) and its series freeze at their last-good values instead
// of vanishing — so cluster rates dip to zero only when the work
// stopped, not when the scrape did. Shuts down gracefully on
// SIGINT/SIGTERM like the other pano binaries.
package main

import (
	"flag"
	"log"
	"os"
	"time"

	"pano/internal/graceful"
	"pano/internal/obs"
	"pano/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8380", "listen address")
	scrape := flag.String("scrape", "", `comma-separated scrape targets: "url" or "instance=url" (required)`)
	interval := flag.Duration("interval", 2*time.Second, "federation scrape period")
	timeout := flag.Duration("timeout", 2*time.Second, "per-target scrape timeout")
	sloSpec := flag.String("slo", "default", `SLO spec evaluated on the cluster rollup ("" = none; see telemetry.ParseSLOs)`)
	logEvents := flag.Bool("log", false, "emit structured JSON log lines (scrape failures, SLO transitions)")
	flag.Parse()

	if *scrape == "" {
		log.Fatal("pano-obsd: -scrape is required")
	}
	targets, err := telemetry.ParseScrapeTargets(*scrape)
	if err != nil {
		log.Fatalf("pano-obsd: %v", err)
	}
	slos, err := telemetry.ParseSLOs(*sloSpec)
	if err != nil {
		log.Fatalf("pano-obsd: %v", err)
	}
	var evlog *obs.EventLog
	if *logEvents {
		evlog = obs.NewEventLog(os.Stderr, 0)
	}
	_, sampler, h, err := telemetry.NewPlane(telemetry.ScraperConfig{
		Targets: targets, Timeout: *timeout, Interval: *interval, Log: evlog,
	}, slos)
	if err != nil {
		log.Fatalf("pano-obsd: %v", err)
	}

	sampler.Start()
	log.Printf("obsd federating %d targets every %s on %s (%d SLOs; /metrics, /debug/slo, /debug/dash, /debug/traces)",
		len(targets), *interval, *addr, len(slos))
	if err := graceful.Serve(*addr, h, graceful.DefaultDrain, sampler); err != nil {
		log.Fatalf("pano-obsd: %v", err)
	}
	log.Printf("drained; bye")
}
