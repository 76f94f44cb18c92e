package quality

import (
	"testing"

	"pano/internal/geom"
	"pano/internal/jnd"
	"pano/internal/mathx"
	"pano/internal/parallel"
)

const benchW, benchH = 960, 480

func runTilePSPNRBench(b *testing.B, workers int) {
	rng := mathx.NewRNG(0xBE9C)
	orig := randFrame(rng, benchW, benchH)
	enc := perturb(rng, orig, 12)
	r := geom.Rect{X1: benchW, Y1: benchH}
	if workers > 0 {
		parallel.SetWorkers(workers)
		defer parallel.SetWorkers(0) // clear the override for later benchmarks
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TilePSPNR(jnd.Default(), orig, enc, r, jnd.Factors{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTilePSPNRSerial(b *testing.B)   { runTilePSPNRBench(b, 1) }
func BenchmarkTilePSPNRParallel(b *testing.B) { runTilePSPNRBench(b, 0) }

// BenchmarkTilePMSECached measures the steady-state cost with a warm
// per-chunk field cache: only PMSE and the JND scaling remain.
func BenchmarkTilePMSECached(b *testing.B) {
	rng := mathx.NewRNG(0xBE9C)
	orig := randFrame(rng, benchW, benchH)
	enc := perturb(rng, orig, 12)
	r := geom.Rect{X1: benchW, Y1: benchH}
	cache := jnd.NewFieldCache(4, nil)
	if _, err := TilePMSE(jnd.Default(), cache, "k", orig, enc, r, jnd.Factors{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TilePMSE(jnd.Default(), cache, "k", orig, enc, r, jnd.Factors{}); err != nil {
			b.Fatal(err)
		}
	}
}
