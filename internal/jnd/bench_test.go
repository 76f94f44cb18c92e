package jnd

import (
	"testing"

	"pano/internal/geom"
	"pano/internal/mathx"
	"pano/internal/parallel"
)

// Benchmark frame: 960×480, the size tiling's BenchmarkPlan* and
// quality's BenchmarkTilePSPNR* use too, large enough that per-call work
// dominates goroutine overhead, so `make microbench` reads the serial
// vs parallel speedup of all three kernels at one frame size.
const benchW, benchH = 960, 480

func runContentFieldBench(b *testing.B, workers int) {
	f := randomFrame(mathx.NewRNG(0xBE9C), benchW, benchH)
	r := geom.Rect{X1: benchW, Y1: benchH}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ContentFieldWorkers(f, r, workers)
	}
}

func BenchmarkContentFieldSerial(b *testing.B)   { runContentFieldBench(b, 1) }
func BenchmarkContentFieldParallel(b *testing.B) { runContentFieldBench(b, parallel.Workers()) }

func BenchmarkFieldCacheHit(b *testing.B) {
	f := randomFrame(mathx.NewRNG(0xBE9C), benchW, benchH)
	r := geom.Rect{X1: benchW, Y1: benchH}
	c := NewFieldCache(4, nil)
	c.ContentField("k", f, r) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ContentField("k", f, r)
	}
}
