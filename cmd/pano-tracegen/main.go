// Command pano-tracegen generates the evaluation dataset: synthetic 360°
// videos (as preprocessed manifests), viewpoint traces, and cellular
// bandwidth traces, written under an output directory:
//
//	out/
//	  video-<i>-<genre>.manifest      (internal/manifest's wire encoding)
//	  video-<i>-<genre>.user-<u>.viewtrace.csv
//	  nettrace-1.csv  (0.71 Mbps-class)
//	  nettrace-2.csv  (1.05 Mbps-class)
//
// Usage:
//
//	pano-tracegen [-out dataset] [-videos 4] [-users 4] [-duration 10] [-seed 2019]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pano/internal/experiments"
	"pano/internal/nettrace"
	"pano/internal/obs"
	"pano/internal/provider"
)

func main() {
	out := flag.String("out", "dataset", "output directory")
	videos := flag.Int("videos", 4, "number of videos")
	users := flag.Int("users", 4, "viewpoint traces per video")
	duration := flag.Int("duration", 10, "video duration in seconds")
	seed := flag.Uint64("seed", 2019, "generation seed")
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatalf("pano-tracegen: %v", err)
	}
	// Structured progress log: one JSON line per artifact plus a final
	// summary (stderr, same stream log.Fatalf uses).
	slog := obs.NewEventLog(os.Stderr, 0).Session("out_dir", *out, "seed", *seed)
	start := time.Now()
	files := 0
	scale := experiments.QuickScale()
	scale.TotalVideos = *videos
	scale.TracedVideos = *videos
	scale.Users = *users
	scale.DurationSec = *duration
	scale.Seed = *seed
	d := experiments.NewDataset(scale)

	for i, v := range d.Videos() {
		base := fmt.Sprintf("video-%d-%s", i, strings.ToLower(v.Genre.String()))
		m, err := d.Manifest(i, provider.ModePano)
		if err != nil {
			log.Fatalf("pano-tracegen: %v", err)
		}
		if err := writeFile(filepath.Join(*out, base+".manifest"), m.Encode); err != nil {
			log.Fatalf("pano-tracegen: %v", err)
		}
		for u, tr := range d.Traces(i) {
			name := fmt.Sprintf("%s.user-%d.viewtrace.csv", base, u)
			if err := writeFile(filepath.Join(*out, name), tr.WriteCSV); err != nil {
				log.Fatalf("pano-tracegen: %v", err)
			}
			files++
		}
		files++
		slog.Info("video_written", "base", base, "chunks", m.NumChunks(), "user_traces", *users)
	}
	for i, mbps := range []float64{0.71, 1.05} {
		tr := nettrace.SynthesizeLTE(*seed+uint64(i), 600, mbps)
		name := fmt.Sprintf("nettrace-%d.csv", i+1)
		if err := writeFile(filepath.Join(*out, name), tr.WriteCSV); err != nil {
			log.Fatalf("pano-tracegen: %v", err)
		}
		files++
		slog.Info("nettrace_written", "name", name, "mean_mbps", tr.Mean())
	}
	slog.Info("dataset_complete",
		"videos", *videos, "users", *users, "files", files,
		"elapsed_sec", time.Since(start).Seconds())
}

func writeFile(path string, encode func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
