// Command pano-player streams a 360° video from a pano-server and
// prints per-chunk adaptation decisions and QoE accounting.
//
// Usage:
//
//	pano-player [-url http://127.0.0.1:8360] [-planner pano|viewport|whole]
//	            [-buffer 2] [-chunks 0] [-trace-seed 3]
//	            [-events] [-metrics] [-trace-out session.json]
//
// -events mirrors the session's structured event log as JSON lines on
// stderr; -metrics dumps the session's metrics in Prometheus text
// exposition format on exit; -trace-out records the session as a span
// tree and writes it as Chrome trace-event JSON (open in Perfetto or
// chrome://tracing).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"pano/cmd/internal/ops"
	"pano/internal/client"
	"pano/internal/obs"
	"pano/internal/player"
	"pano/internal/scene"
	"pano/internal/telemetry"
	"pano/internal/trace"
	"pano/internal/viewport"
)

func main() {
	url := flag.String("url", "http://127.0.0.1:8360", "pano-server or pano-edge base URL; the player speaks h2c (HTTP/2 without TLS, by prior knowledge), so an HTTP/1-only server fails it")
	plannerName := flag.String("planner", "pano", "quality planner: pano, viewport, or whole")
	buffer := flag.Float64("buffer", 2, "buffer target in seconds")
	chunks := flag.Int("chunks", 0, "max chunks to stream (0 = all)")
	traceSeed := flag.Uint64("trace-seed", 3, "viewpoint trace seed")
	events := flag.Bool("events", false, "emit structured JSON events on stderr")
	metrics := flag.Bool("metrics", false, "dump Prometheus metrics on exit")
	traceOut := flag.String("trace-out", "", "write the session trace as Chrome trace-event JSON to this file")
	sloSpec := flag.String("slo", "", `SLO telemetry spec, e.g. "default" ("" = off; see telemetry.ParseSLOs)`)
	telAddr := flag.String("telemetry-addr", "", "serve /metrics, /debug/slo, and /debug/dash on this address while streaming (requires -slo)")
	flag.Parse()

	var pl player.Planner
	switch *plannerName {
	case "pano":
		pl = player.NewPanoPlanner()
	case "viewport":
		pl = player.NewViewportPlanner("viewport-driven")
	case "whole":
		pl = player.WholePlanner{}
	default:
		fmt.Fprintf(os.Stderr, "pano-player: unknown planner %q\n", *plannerName)
		os.Exit(2)
	}

	// pano-server and pano-edge speak h2c: the session rides one
	// connection, each chunk's tile GETs concurrent streams on it.
	cl := client.NewH2C(*url)
	ctx := context.Background()
	m, err := cl.FetchManifest(ctx)
	if err != nil {
		log.Fatalf("pano-player: %v", err)
	}
	fmt.Printf("manifest: %q %dx%d@%d, %d chunks, %d tiles/chunk\n",
		m.Name, m.W, m.H, m.FPS, m.NumChunks(), len(m.Chunks[0].Tiles))

	// The player needs a head-motion feed; without an HMD we replay a
	// synthesized trace over a reconstruction of the scene's behaviour.
	proxy := scene.Generate(scene.Sports, *traceSeed, scene.Options{
		W: m.W, H: m.H, FPS: m.FPS, DurationSec: int(m.DurationSec()),
	})
	tr := viewport.Synthesize(proxy, *traceSeed, viewport.DefaultSynthesizeOpts())

	evlog := obs.NewEventLog(nil, 0)
	if *events {
		evlog = obs.NewEventLog(os.Stderr, 0)
	}
	// Sessions are short: sample fast.
	kit, err := ops.NewKit(evlog, *traceOut != "", *sloSpec, 250*time.Millisecond)
	if err != nil {
		log.Fatalf("pano-player: %v", err)
	}
	reg, tracer := kit.Reg, kit.Tracer
	if kit.Sampler != nil {
		kit.Sampler.Start()
		defer kit.Sampler.Stop()
		if *telAddr != "" {
			// A session-local debug endpoint: watch the SLO dashboard live
			// while the player streams. Plain http.Serve — the process exits
			// with the session, so graceful drain buys nothing here.
			mux := http.NewServeMux()
			telemetry.Mount(mux, reg, evlog, tracer, kit.Sampler)
			ln, lerr := net.Listen("tcp", *telAddr)
			if lerr != nil {
				log.Fatalf("pano-player: %v", lerr)
			}
			defer ln.Close()
			go http.Serve(ln, mux)
			fmt.Printf("telemetry: http://%s/debug/dash\n", ln.Addr())
		}
	} else if *telAddr != "" {
		log.Fatalf("pano-player: -telemetry-addr requires -slo (try -slo default)")
	}
	res, err := cl.Stream(ctx, tr, client.StreamConfig{
		BufferTargetSec: *buffer,
		Planner:         pl,
		MaxChunks:       *chunks,
		Obs:             reg,
		Log:             evlog,
		Trace:           tracer,
	})
	if *metrics {
		// Written before the error check so a failed session still
		// dumps what it recorded (log.Fatalf skips defers).
		_ = reg.WritePrometheus(os.Stderr)
	}
	if tracer != nil {
		// Written before the error check too: a failed session's trace is
		// the one most worth looking at.
		if werr := writeTrace(*traceOut, tracer); werr != nil {
			log.Printf("pano-player: %v", werr)
		}
	}
	if err != nil {
		log.Fatalf("pano-player: %v", err)
	}
	fmt.Printf("startup delay: %v\n", res.StartupDelay)
	if res.TraceID != "" {
		fmt.Printf("trace: %s (%s)\n", res.TraceID, *traceOut)
	}
	for _, ch := range res.Chunks {
		hi, lo := levelSpread(ch)
		fmt.Printf("chunk %3d: %7d bytes in %8v (%.2f Mbps), levels L%d..L%d\n",
			ch.Chunk, ch.Bytes, ch.Download.Round(1000), ch.Throughput/1e6, hi, lo)
	}
	fmt.Printf("total: %d bytes over %d chunks (planner=%s)\n",
		res.TotalBytes, len(res.Chunks), pl.Name())
	fmt.Printf("qoe: est PSPNR %.1f dB (MOS %d), rebuffer %.2fs\n",
		res.MeanEstPSPNR(), res.MOS(), res.RebufferSec)
}

func writeTrace(path string, tracer *trace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChromeTrace(f, tracer.Traces()...); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func levelSpread(ch client.ChunkResult) (hi, lo int) {
	hi, lo = 99, -1
	for _, l := range ch.Levels {
		if int(l) < hi {
			hi = int(l)
		}
		if int(l) > lo {
			lo = int(l)
		}
	}
	return hi, lo
}
