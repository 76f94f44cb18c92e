// Command pano-server serves an encoded 360° video over HTTP in the
// DASH-compatible layout of §6.2: /manifest.json plus per-tile media
// objects under /video/{chunk}/{tile}/{level}.bin.
//
// Usage:
//
//	pano-server [-addr :8360] [-manifest video.manifest]
//	pano-server [-addr :8360] [-genre sports] [-seed 1] [-duration 30]
//	pano-server -chaos "seed=7,tile-error=0.1,tile-latency=20ms"
//	pano-server -store /var/pano/store            (stateless origin)
//	pano-server -store /var/pano/store -live      (origin + JIT publisher)
//
// With -manifest it serves a preprocessed manifest in the wire encoding
// of internal/manifest (e.g. a .manifest file of pano-tracegen);
// otherwise it generates a synthetic video of the given
// genre and preprocesses it on startup.
//
// With -store it serves from a content-addressed tile store directory
// instead of process memory: any number of pano-server processes can
// point at the same directory and answer with byte-identical objects
// and ETags (stateless origins). -live additionally runs the
// just-in-time live pipeline in-process, publishing the generated video
// into the store chunk by chunk while serving it.
//
// -chaos wraps the handler in the deterministic fault injector of
// internal/chaos (see chaos.Parse for the spec grammar) to exercise
// client resilience: injected 500s, connection aborts, latency,
// throttling, truncated or stalled bodies, flaky windows.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"pano/cmd/internal/ops"
	"pano/internal/live"
	"pano/internal/manifest"
	"pano/internal/provider"
	"pano/internal/scene"
	"pano/internal/server"
	"pano/internal/store"
	"pano/internal/viewport"
)

func main() {
	addr := flag.String("addr", ":8360", "listen address")
	manPath := flag.String("manifest", "", "serve this preprocessed manifest file (wire encoding, e.g. from pano-tracegen)")
	genre := flag.String("genre", "sports", "genre for the generated video")
	seed := flag.Uint64("seed", 1, "generation seed")
	duration := flag.Int("duration", 10, "video duration in seconds")
	enablePprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	logRequests := flag.Bool("log-requests", false, "emit one structured JSON log line per request")
	chaosSpec := flag.String("chaos", "", `fault-injection spec, e.g. "seed=7,tile-error=0.1" ("" = off)`)
	enableTrace := flag.Bool("trace", false, "record handler spans for traced requests (browse at /debug/traces)")
	sloSpec := flag.String("slo", "", `SLO telemetry spec, e.g. "default" or "rebuffer<=0.02;tile_p99<=0.3" ("" = off; see telemetry.ParseSLOs)`)
	storeDir := flag.String("store", "", "serve from this content-addressed store directory (stateless origin mode)")
	liveMode := flag.Bool("live", false, "run the just-in-time live pipeline, publishing the generated video into -store")
	liveDeadline := flag.Duration("live-deadline", time.Second, "per-chunk publish deadline for -live (0 = untracked)")
	liveWindow := flag.Int("live-window", 0, "live availability window in chunks (0 = unbounded)")
	liveInterval := flag.Duration("live-interval", 0, "capture pacing for -live (0 = real time: one chunk duration per chunk)")
	flag.Parse()

	kit, err := ops.New(*enablePprof, *logRequests, *chaosSpec, *enableTrace, *sloSpec)
	if err != nil {
		log.Fatalf("pano-server: %v", err)
	}
	reg, evlog, tracer := kit.Reg, kit.Log, kit.Tracer
	if *liveMode && *storeDir == "" {
		log.Fatalf("pano-server: -live requires -store")
	}
	if *storeDir != "" && *manPath != "" {
		log.Fatalf("pano-server: -store and -manifest are mutually exclusive")
	}

	var m *manifest.Video
	var v *scene.Video
	var history []*viewport.Trace
	switch {
	case *manPath != "":
		wire, err := os.ReadFile(*manPath)
		if err != nil {
			log.Fatalf("pano-server: %v", err)
		}
		if m, err = manifest.Unmarshal(wire); err != nil {
			log.Fatalf("pano-server: %s: %v", *manPath, err)
		}
	case *storeDir != "" && !*liveMode:
		// Stateless origin: the manifest lives in the store's catalog.
	default:
		g, err := parseGenre(*genre)
		if err != nil {
			log.Fatalf("pano-server: %v", err)
		}
		opts := scene.DefaultOptions()
		opts.DurationSec = *duration
		v = scene.Generate(g, *seed, opts)
		history = []*viewport.Trace{
			viewport.Synthesize(v, *seed+1, viewport.DefaultSynthesizeOpts()),
			viewport.Synthesize(v, *seed+2, viewport.DefaultSynthesizeOpts()),
		}
		if *liveMode {
			log.Printf("generated %s (%dx%d@%d, %ds); publishing just in time", v.Name, v.W, v.H, v.FPS, v.DurationSec)
		} else {
			log.Printf("generated %s (%dx%d@%d, %ds); preprocessing...", v.Name, v.W, v.H, v.FPS, v.DurationSec)
			m, err = provider.Preprocess(v, history, provider.DefaultConfig())
			if err != nil {
				log.Fatalf("pano-server: %v", err)
			}
		}
	}
	opts := []server.Option{server.WithObs(reg), server.WithEventLog(evlog),
		server.WithTracer(tracer), server.WithTelemetry(kit.Sampler)}
	var s *server.Server
	if *storeDir != "" {
		st, err := store.Open(*storeDir, store.WithObs(reg), store.WithEventLog(evlog))
		if err != nil {
			log.Fatalf("pano-server: %v", err)
		}
		if *liveMode {
			pipe, err := live.New(live.Config{
				Video: v, History: history,
				Deadline: *liveDeadline, WindowChunks: *liveWindow,
				CaptureInterval: *liveInterval,
				Store:           st, Obs: reg, Log: evlog, Tracer: tracer,
			})
			if err != nil {
				log.Fatalf("pano-server: %v", err)
			}
			go func() {
				rep, err := pipe.Run(context.Background())
				if err != nil {
					log.Printf("live feed failed: %v", err)
					return
				}
				log.Printf("live feed done: %d chunks, %d deadline misses (%.1f%% on time), %d degraded",
					rep.Chunks, rep.DeadlineMisses, 100*rep.OnTimeFrac(), rep.Degraded)
			}()
		}
		// The pipeline publishes its head asynchronously; give a fresh
		// store a moment to grow a catalog before giving up.
		var b *store.Backend
		for i := 0; ; i++ {
			b, err = store.NewBackend(st)
			if err == nil || !*liveMode || i >= 100 {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		if err != nil {
			log.Fatalf("pano-server: %v", err)
		}
		s, err = server.NewBackend(b, opts...)
		if err != nil {
			log.Fatalf("pano-server: %v", err)
		}
		man, _, _, _ := b.Manifest()
		m = man
		log.Printf("serving store %s (catalog seq %d, %d chunks published)", *storeDir, m.Seq, m.NumChunks())
	} else {
		s, err = server.New(m, opts...)
		if err != nil {
			log.Fatalf("pano-server: %v", err)
		}
	}
	tiles0 := 0
	if len(m.Chunks) > 0 {
		tiles0 = len(m.Chunks[0].Tiles)
	}
	log.Printf("serving %q (%d chunks, %d tiles/chunk) on %s (metrics at /metrics)",
		m.Name, m.NumChunks(), tiles0, *addr)
	if err := kit.Serve(*addr, s.Handler()); err != nil {
		log.Fatalf("pano-server: %v", err)
	}
	log.Printf("drained; bye")
}

func parseGenre(s string) (scene.Genre, error) {
	for _, g := range scene.AllGenres() {
		if strings.EqualFold(g.String(), s) {
			return g, nil
		}
	}
	return 0, fmt.Errorf("unknown genre %q", s)
}
