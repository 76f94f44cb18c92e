package pano

// One benchmark per paper table/figure (DESIGN.md §3 maps ids to
// artifacts), plus ablation and micro benchmarks on the core paths.
// Each experiment bench regenerates its table once per iteration on a
// shared quick-scale dataset, and reports the headline numbers via
// b.ReportMetric so `go test -bench` output doubles as a results sheet.

import (
	"sync"
	"testing"

	"pano/internal/abr"
	"pano/internal/codec"
	"pano/internal/experiments"
	"pano/internal/geom"
	"pano/internal/jnd"
	"pano/internal/mathx"
	"pano/internal/player"
	"pano/internal/provider"
	"pano/internal/quality"
	"pano/internal/scene"
	"pano/internal/sim"
	"pano/internal/tiling"
	"pano/internal/viewport"
)

var (
	benchOnce sync.Once
	benchDS   *experiments.Dataset
)

func benchDataset(b *testing.B) *experiments.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		s := experiments.QuickScale()
		s.TracedVideos = 3
		s.TotalVideos = 7
		s.Users = 2
		s.DurationSec = 8
		benchDS = experiments.NewDataset(s)
	})
	return benchDS
}

func runExperiment(b *testing.B, id string) {
	d := benchDataset(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(d, id); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Paper figures and tables ---

func BenchmarkFig1PSPNRvsBuffering(b *testing.B) {
	d := benchDataset(b)
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig1(d)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.System == experiments.SysPano {
				b.ReportMetric(r.PSPNR, "pano_dB")
				b.ReportMetric(r.BufferingRatio, "pano_buf%")
			}
		}
	}
}

func BenchmarkFig3FactorCDFs(b *testing.B)         { runExperiment(b, "fig3") }
func BenchmarkFig4TilingOverhead(b *testing.B)     { runExperiment(b, "fig4") }
func BenchmarkFig6JNDFactors(b *testing.B)         { runExperiment(b, "fig6") }
func BenchmarkFig7JointJND(b *testing.B)           { runExperiment(b, "fig7") }
func BenchmarkFig8MOSAccuracy(b *testing.B)        { runExperiment(b, "fig8") }
func BenchmarkFig10SpeedBound(b *testing.B)        { runExperiment(b, "fig10") }
func BenchmarkFig13MOSByGenre(b *testing.B)        { runExperiment(b, "fig13") }
func BenchmarkFig15TraceDriven(b *testing.B)       { runExperiment(b, "fig15") }
func BenchmarkFig16aNoiseError(b *testing.B)       { runExperiment(b, "fig16a") }
func BenchmarkFig16bUserSpread(b *testing.B)       { runExperiment(b, "fig16b") }
func BenchmarkFig16cNoiseSweep(b *testing.B)       { runExperiment(b, "fig16c") }
func BenchmarkFig16dThroughputError(b *testing.B)  { runExperiment(b, "fig16d") }
func BenchmarkFig17aClientOverhead(b *testing.B)   { runExperiment(b, "fig17a") }
func BenchmarkFig17bStartupDelay(b *testing.B)     { runExperiment(b, "fig17b") }
func BenchmarkFig17cPreprocessing(b *testing.B)    { runExperiment(b, "fig17c") }
func BenchmarkFig18aComponentwise(b *testing.B)    { runExperiment(b, "fig18a") }
func BenchmarkFig18bBandwidthByGenre(b *testing.B) { runExperiment(b, "fig18b") }
func BenchmarkTable2Dataset(b *testing.B)          { runExperiment(b, "tab2") }
func BenchmarkTable3MOSMap(b *testing.B)           { runExperiment(b, "tab3") }
func BenchmarkLookupTableCompression(b *testing.B) { runExperiment(b, "lut") }

func BenchmarkTileAllocationPruning(b *testing.B) { runExperiment(b, "prune") }

func BenchmarkFig14Snapshot(b *testing.B) {
	d := benchDataset(b)
	dir := b.TempDir()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig14(d, dir); err != nil {
			b.Fatal(err)
		}
	}
}

// Extensions beyond the paper (EXPERIMENTS.md).
func BenchmarkJoint3FactorJND(b *testing.B)     { runExperiment(b, "joint3") }
func BenchmarkCrossUserPrediction(b *testing.B) { runExperiment(b, "crossuser") }

// --- Ablations (DESIGN.md §3) ---

// BenchmarkAblationTileCount varies N, the number of variable-size
// tiles, around the paper's default of 30.
func BenchmarkAblationTileCount(b *testing.B) {
	v := scene.Generate(scene.Sports, 3, scene.Options{W: 240, H: 120, FPS: 10, DurationSec: 4})
	tr := viewport.Synthesize(v, 1, viewport.DefaultSynthesizeOpts())
	for _, n := range []int{10, 30, 60} {
		b.Run(benchName("tiles", n), func(b *testing.B) {
			cfg := provider.DefaultConfig()
			cfg.Tiles = n
			m, err := provider.Preprocess(v, []*viewport.Trace{tr}, cfg)
			if err != nil {
				b.Fatal(err)
			}
			link := sim.ScaledLink(m, sim.Trace1Frac, 5)
			var pspnr float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(m, tr, link, player.NewPanoPlanner(), sim.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				pspnr = res.MeanPSPNR
			}
			b.ReportMetric(pspnr, "dB")
		})
	}
}

// BenchmarkAblationSampling compares per-frame PSPNR preprocessing with
// the paper's 1-in-10 sampling (§6.3).
func BenchmarkAblationSampling(b *testing.B) {
	v := scene.Generate(scene.Documentary, 5, scene.Options{W: 240, H: 120, FPS: 10, DurationSec: 2})
	tr := viewport.Synthesize(v, 1, viewport.DefaultSynthesizeOpts())
	for _, stride := range []int{1, 10} {
		b.Run(benchName("stride", stride), func(b *testing.B) {
			cfg := provider.DefaultConfig()
			cfg.FrameStride = stride
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := provider.Preprocess(v, []*viewport.Trace{tr}, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBoundKind compares the conservative lower-bound
// factor estimate against a best-guess estimate in the allocator.
func BenchmarkAblationBoundKind(b *testing.B) {
	d := benchDataset(b)
	vi := d.TracedIndices()[0]
	m, err := d.Manifest(vi, provider.ModePano)
	if err != nil {
		b.Fatal(err)
	}
	tr := d.Traces(vi)[0]
	est := player.NewEstimator()
	for _, kind := range []string{"lower-bound", "best-guess"} {
		kind := kind
		b.Run(kind, func(b *testing.B) {
			pl := player.NewPanoPlanner()
			var total float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < m.NumChunks(); k++ {
					now := float64(k) * m.ChunkSec
					var view player.ChunkView
					if kind == "lower-bound" {
						view = est.View(m, tr, k, now)
					} else {
						view = est.View(m, tr, k, now).BestGuess(tr, now)
					}
					alloc := pl.Plan(m, k, view, m.ChunkBits(k, codec.Level(2)))
					actual := est.ActualView(m, tr, k)
					total += player.ViewportPSPNR(m, k, alloc, actual, jnd.Default())
				}
			}
			b.ReportMetric(total/float64(b.N*m.NumChunks()), "dB")
		})
	}
}

// BenchmarkAblationController compares the §6.1 MPC against BOLA as the
// chunk-level bitrate algorithm under identical tile allocation.
func BenchmarkAblationController(b *testing.B) {
	d := benchDataset(b)
	vi := d.TracedIndices()[0]
	m, err := d.Manifest(vi, provider.ModePano)
	if err != nil {
		b.Fatal(err)
	}
	tr := d.Traces(vi)[0]
	link := sim.ScaledLink(m, sim.Trace1Frac, 9)
	for _, kind := range []string{"mpc", "bola"} {
		kind := kind
		b.Run(kind, func(b *testing.B) {
			var pspnr, stall float64
			for i := 0; i < b.N; i++ {
				cfg := sim.DefaultConfig()
				cfg.Scene = d.Video(vi)
				if kind == "bola" {
					cfg.Controller = abr.NewBOLA(cfg.BufferTargetSec + 1)
				}
				res, err := sim.Run(m, tr, link, player.NewPanoPlanner(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				pspnr = res.MeanPSPNR
				stall = res.StallSec
			}
			b.ReportMetric(pspnr, "dB")
			b.ReportMetric(stall, "stall_s")
		})
	}
}

// --- Micro-benchmarks on the hot paths ---

func BenchmarkEncoderDistortFrame(b *testing.B) {
	v := scene.Generate(scene.Sports, 1, scene.Options{W: 240, H: 120, FPS: 10, DurationSec: 1})
	f := v.RenderFrame(0)
	e := codec.NewEncoder()
	r := geom.Rect{X1: f.W, Y1: f.H}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.DistortRegion(f, r, 32); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncoderRateFrame(b *testing.B) {
	v := scene.Generate(scene.Sports, 1, scene.Options{W: 240, H: 120, FPS: 10, DurationSec: 1})
	f := v.RenderFrame(0)
	e := codec.NewEncoder()
	r := geom.Rect{X1: f.W, Y1: f.H}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.FrameRegionBits(f, r, 32)
	}
}

func BenchmarkPSPNRFrame(b *testing.B) {
	v := scene.Generate(scene.Sports, 1, scene.Options{W: 240, H: 120, FPS: 10, DurationSec: 1})
	f := v.RenderFrame(0)
	r := geom.Rect{X1: f.W, Y1: f.H}
	enc, err := codec.NewEncoder().DistortRegion(f, r, 32)
	if err != nil {
		b.Fatal(err)
	}
	prof := jnd.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pmse, err := quality.TilePMSE(prof, nil, "", f, enc, r, jnd.Factors{SpeedDegS: 10})
		if err != nil {
			b.Fatal(err)
		}
		_ = quality.PSPNRFromPMSE(pmse)
	}
}

func BenchmarkVariableTiling(b *testing.B) {
	rng := mathx.NewRNG(9)
	scores := make([][]float64, tiling.UnitRows)
	for r := range scores {
		scores[r] = make([]float64, tiling.UnitCols)
		for c := range scores[r] {
			scores[r][c] = rng.Range(0, 10)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tiling.VariableTiling(scores, tiling.DefaultTiles); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllocators(b *testing.B) {
	rng := mathx.NewRNG(4)
	tiles := make([]abr.TileChoice, 30)
	for i := range tiles {
		base := rng.Range(1e4, 2e5)
		cost := rng.Range(1, 30)
		for l := 0; l < codec.NumLevels; l++ {
			tiles[i].Bits[l] = base / float64(uint(1)<<uint(l))
			tiles[i].Cost[l] = cost * float64(uint(1)<<uint(l))
		}
	}
	budget := abr.TotalBits(tiles, make(abr.Allocation, 30)) / 2
	b.Run("pruned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			abr.AllocatePruned(tiles, budget, 0)
		}
	})
	b.Run("greedy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			abr.AllocateGreedy(tiles, budget)
		}
	})
	b.Run("exhaustive8", func(b *testing.B) {
		sub := tiles[:8]
		subBudget := budget * 8 / 30
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := abr.AllocateExhaustive(sub, subBudget); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkViewpointPrediction(b *testing.B) {
	v := scene.Generate(scene.Sports, 2, scene.Options{W: 240, H: 120, FPS: 10, DurationSec: 20})
	tr := viewport.Synthesize(v, 3, viewport.DefaultSynthesizeOpts())
	p := viewport.NewPredictor()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Predict(tr, 10, 1.5)
	}
}

func benchName(prefix string, n int) string {
	const digits = "0123456789"
	if n == 0 {
		return prefix + "-0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = digits[n%10]
		n /= 10
	}
	return prefix + "-" + string(buf[i:])
}
