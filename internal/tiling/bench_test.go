package tiling

import (
	"testing"

	"pano/internal/frame"
	"pano/internal/geom"
	"pano/internal/jnd"
	"pano/internal/mathx"
	"pano/internal/parallel"
)

// runPlanBench scores the 12×24 unit grid with a real pixel kernel
// (the summed content-JND field of each unit tile, the field the
// provider's Equation-5 scoring reads) so the benchmark reflects what
// Plan actually parallelizes.
func runPlanBench(b *testing.B, workers int) {
	const w, h = 960, 480
	rng := mathx.NewRNG(0xBE9C)
	f := frame.New(w, h)
	for i := range f.Pix {
		f.Pix[i] = uint8(rng.Intn(256))
	}
	full := geom.Rect{X1: w, Y1: h}
	score := func(r, c int) float64 {
		u := UnitRect{R0: r, C0: c, R1: r + 1, C1: c + 1}
		var s float64
		for _, v := range jnd.ContentField(f, u.Pixels(w, h, UnitRows, UnitCols).Intersect(full)) {
			s += v
		}
		return s
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlanWorkers(UnitRows, UnitCols, 36, score, workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanSerial(b *testing.B)   { runPlanBench(b, 1) }
func BenchmarkPlanParallel(b *testing.B) { runPlanBench(b, parallel.Workers()) }
