// Command pano-edge runs the edge cache tier: a caching reverse proxy
// between Pano clients and an origin pano-server, with request
// coalescing, ETag revalidation, negative caching, serve-stale on
// origin faults, and optional prediction-driven prefetch of next-chunk
// tiles.
//
// Usage:
//
//	pano-edge -origins http://127.0.0.1:8360[,http://127.0.0.1:8370,...]
//	          [-addr :8361] [-probe-interval 2s]
//	          [-cache-bytes 67108864] [-ttl 60s] [-prefetch 0]
//	          [-peer-traces a.csv,b.csv] [-chaos spec] [-trace] [-pprof]
//
// Two or more -origins entries enable fleet mode: cache fills shard
// across the origins on a consistent-hash ring, active /healthz probes
// and passive error signals drive per-origin circuit breakers, failed
// fetches fail over along the ring, and slow ones race a hedged backup
// request — all under a token-bucket retry budget.
//
// -cache-bytes 0 disables caching entirely: the edge becomes a
// transparent pass-through whose responses are byte-identical to the
// origin's. -prefetch N enables warming with a token budget of N tiles;
// with -peer-traces the warm set follows the peers' consensus viewpoint
// (cross-user prediction), without it the edge mirrors its own observed
// demand one chunk ahead.
//
// -chaos wraps the edge's own handler in the deterministic fault
// injector (same spec grammar as pano-server), exercising client
// resilience against a flaky edge; a chaotic *origin* is instead
// tolerated natively by the edge's retry ladder and serve-stale path.
//
// Like pano-server, the process drains in-flight responses on
// SIGINT/SIGTERM instead of severing them.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/url"
	"os"
	"strings"
	"time"

	"pano/cmd/internal/ops"
	"pano/internal/edge"
	"pano/internal/viewport"
)

func main() {
	addr := flag.String("addr", ":8361", "listen address")
	origins := flag.String("origins", "", "comma-separated origin base URLs; two or more enable fleet mode (consistent-hash sharding, failover, breakers, hedged fetches)")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "fleet mode: active /healthz probe period per origin (0 = passive health only)")
	cacheBytes := flag.Int64("cache-bytes", 64<<20, "cache byte budget (0 = pass-through, no caching)")
	ttl := flag.Duration("ttl", 60*time.Second, "freshness TTL for cached objects")
	negTTL := flag.Duration("neg-ttl", 5*time.Second, "TTL for cached negative (404) answers")
	staleFor := flag.Duration("stale-for", 5*time.Minute, "serve-stale window when the origin is faulty")
	prefetch := flag.Int("prefetch", 0, "prefetch token budget (0 = prefetch off)")
	peerTraces := flag.String("peer-traces", "", "comma-separated viewpoint-trace CSVs for cross-user prefetch prediction")
	chaosSpec := flag.String("chaos", "", `fault-injection spec wrapping the edge handler ("" = off)`)
	enableTrace := flag.Bool("trace", false, "record edge spans for traced requests (browse at /debug/traces)")
	enablePprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	logRequests := flag.Bool("log-requests", false, "emit structured JSON log lines for edge activity")
	sloSpec := flag.String("slo", "", `SLO telemetry spec, e.g. "default" or "edge_hit>=0.7" ("" = off; see telemetry.ParseSLOs)`)
	flag.Parse()

	var fleetOrigins []string
	for _, o := range strings.Split(*origins, ",") {
		if o = strings.TrimSpace(o); o != "" {
			fleetOrigins = append(fleetOrigins, o)
		}
	}
	if len(fleetOrigins) == 0 {
		log.Fatal("pano-edge: -origins is required")
	}
	for _, o := range fleetOrigins {
		if u, err := url.Parse(o); err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			log.Fatalf("pano-edge: bad origin %q (want http[s]://host[:port])", o)
		}
	}
	kit, err := ops.New(*enablePprof, *logRequests, *chaosSpec, *enableTrace, *sloSpec)
	if err != nil {
		log.Fatalf("pano-edge: %v", err)
	}
	var peers []*viewport.Trace
	if *peerTraces != "" {
		for _, path := range strings.Split(*peerTraces, ",") {
			f, err := os.Open(strings.TrimSpace(path))
			if err != nil {
				log.Fatalf("pano-edge: %v", err)
			}
			tr, err := viewport.ParseCSV(f)
			f.Close()
			if err != nil {
				log.Fatalf("pano-edge: %s: %v", path, err)
			}
			peers = append(peers, tr)
		}
	}

	ecfg := edge.Config{
		Origin:         fleetOrigins[0],
		CacheBytes:     *cacheBytes,
		TTL:            *ttl,
		NegTTL:         *negTTL,
		StaleFor:       *staleFor,
		PrefetchBudget: *prefetch,
		Peers:          peers,
		Obs:            kit.Reg,
		Log:            kit.Log,
		Tracer:         kit.Tracer,
		Telemetry:      kit.Sampler,
	}
	if len(fleetOrigins) > 1 {
		ecfg.Origins = fleetOrigins
		ecfg.ProbeInterval = *probeInterval
	}
	e, err := edge.New(ecfg)
	if err != nil {
		log.Fatalf("pano-edge: %v", err)
	}
	defer e.Close()

	mode := "caching"
	if *cacheBytes == 0 {
		mode = "pass-through"
	}
	originDesc := fleetOrigins[0]
	if len(fleetOrigins) > 1 {
		originDesc = fmt.Sprintf("fleet of %d shards %s (probe %s)",
			len(fleetOrigins), strings.Join(fleetOrigins, ","), *probeInterval)
	}
	log.Printf("edge (%s) for origin %s on %s (cache %d bytes, ttl %s, prefetch budget %d, %d peer traces; metrics at /metrics)",
		mode, originDesc, *addr, *cacheBytes, *ttl, *prefetch, len(peers))
	if err := kit.Serve(*addr, e.Handler()); err != nil {
		log.Fatalf("pano-edge: %v", err)
	}
	log.Printf("drained; bye")
}
