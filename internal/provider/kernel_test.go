package provider

import (
	"bytes"
	"math"
	"strconv"
	"testing"
	"time"

	"pano/internal/codec"
	"pano/internal/frame"
	"pano/internal/geom"
	"pano/internal/jnd"
	"pano/internal/manifest"
	"pano/internal/mathx"
	"pano/internal/parallel"
	"pano/internal/scene"
	"pano/internal/viewport"
)

// pmseAtAnchors is the kernel perceptibleError replaced, kept as its
// oracle: the PMSE of one rect at each anchor from the original, the
// materialized encoded frame and the per-pixel content field, visiting
// every anchor of every differing pixel.
func pmseAtAnchors(orig, enc *frame.Frame, content []float64, r geom.Rect, anchors []float64) []float64 {
	sums := make([]float64, len(anchors))
	w := orig.W
	for y := r.Y0; y < r.Y1; y++ {
		for x := r.X0; x < r.X1; x++ {
			d := math.Abs(float64(orig.Pix[y*w+x]) - float64(enc.Pix[y*w+x]))
			if d == 0 {
				continue
			}
			c := content[y*w+x]
			for ai, a := range anchors {
				th := c * a
				if d >= th {
					ex := d - th
					sums[ai] += ex * ex
				}
			}
		}
	}
	area := float64(r.Area())
	for ai := range sums {
		sums[ai] /= area
	}
	return sums
}

// kernelFixture is one analyzed frame together with what the oracle
// reads: the decoded frame per level and the per-pixel content field.
type kernelFixture struct {
	sf      *sampledFrame
	enc     [codec.NumLevels]*frame.Frame
	content []float64
}

// renderedFixture analyzes frame 4 of a generated video the way the
// chunk analysis does. 236×118 leaves a partial last block column (4
// wide) and row (6 high).
func renderedFixture(tb testing.TB) *kernelFixture {
	v := scene.Generate(scene.Gaming, 3, scene.Options{W: 236, H: 118, FPS: 10, DurationSec: 1})
	p := &preprocessor{cfg: DefaultConfig(), video: v}
	sf, err := p.analyzeFrame(4)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(sf.release)
	full := geom.Rect{X1: v.W, Y1: v.H}
	k := &kernelFixture{sf: sf, content: jnd.ContentField(sf.orig, full)}
	for l := range k.enc {
		if k.enc[l], err = p.cfg.Encoder.DistortRegion(sf.orig, full, codec.Level(l).QP()); err != nil {
			tb.Fatal(err)
		}
	}
	return k
}

// dyadicFixture is a hand-made 43×29 frame whose content JND takes a
// few dyadic values per block and whose errors are small integers, so
// that with small-integer anchors a threshold c·a lands exactly on an
// error again and again: d == c·a is the zero addend the kernel's clamp
// must produce like any other.
func dyadicFixture() *kernelFixture {
	const w, h = 43, 29
	rng := mathx.NewRNG(29)
	orig := frame.New(w, h)
	for i := range orig.Pix {
		orig.Pix[i] = 128
	}
	cols := (w + jnd.FieldBlockSize - 1) / jnd.FieldBlockSize
	blocks := make([]float64, cols*((h+jnd.FieldBlockSize-1)/jnd.FieldBlockSize))
	for i := range blocks {
		blocks[i] = []float64{0.5, 1, 1.5, 2, 3}[rng.Intn(5)]
	}
	k := &kernelFixture{
		sf:      &sampledFrame{orig: orig, content: blocks, contentCols: cols},
		content: make([]float64, w*h),
	}
	for i := range k.content {
		k.content[i] = blocks[i/w/jnd.FieldBlockSize*cols+i%w/jnd.FieldBlockSize]
	}
	for l := range k.enc {
		k.enc[l] = frame.New(w, h)
		k.sf.errs[l] = make([]uint8, w*h)
		for i := range k.sf.errs[l] {
			e := rng.Intn(4 * (l + 1)) // 0 often: whole runs below every threshold
			k.sf.errs[l][i] = uint8(e)
			k.enc[l].Pix[i] = uint8(128 + (2*rng.Intn(2)-1)*e)
		}
	}
	return k
}

// check holds perceptibleError to the oracle on one rect: every anchor's
// sum and Σe², bit for bit.
func (k *kernelFixture) check(tb testing.TB, l int, r geom.Rect, anchors []float64) {
	tb.Helper()
	sums := make([]float64, len(anchors))
	sq := perceptibleError(k.sf, l, r, anchors, sums)
	want := pmseAtAnchors(k.sf.orig, k.enc[l], k.content, r, anchors)
	for j := range want {
		if got := sums[j] / float64(r.Area()); got != want[j] {
			tb.Fatalf("rect %v level %d anchor %v: PMSE %v, oracle %v", r, l, anchors[j], got, want[j])
		}
	}
	// The A=0 anchor of the oracle is the plain MSE.
	if got, want := float64(sq)/float64(r.Area()), pmseAtAnchors(k.sf.orig, k.enc[l], k.content, r, []float64{0})[0]; got != want {
		tb.Fatalf("rect %v level %d: MSE %v, oracle %v", r, l, got, want)
	}
}

// ascending returns n anchors from first, gap apart.
func ascending(n int, first, gap float64) []float64 {
	anchors := make([]float64, n)
	for j := range anchors {
		anchors[j] = first + float64(j)*gap
	}
	return anchors
}

func TestPerceptibleErrorMatchesOracle(t *testing.T) {
	rendered, dyadic := renderedFixture(t), dyadicFixture()
	for _, k := range []*kernelFixture{rendered, dyadic} {
		w, h := k.sf.orig.W, k.sf.orig.H
		// Random rects, 1 to 10 irregularly spaced anchors.
		rng := mathx.NewRNG(17)
		for i := 0; i < 300; i++ {
			x0, y0 := rng.Intn(w), rng.Intn(h)
			r := geom.Rect{X0: x0, Y0: y0, X1: x0 + 1 + rng.Intn(w-x0), Y1: y0 + 1 + rng.Intn(h-y0)}
			anchors := make([]float64, 1+rng.Intn(10))
			a := rng.Range(0.05, 2)
			for j := range anchors {
				anchors[j] = a
				a += rng.Range(0.01, 3)
			}
			k.check(t, rng.Intn(codec.NumLevels), r, anchors)
		}
		// Every left edge mod 8 against every width up to two blocks and
		// a bit — first and last runs of every length 1…8, alone, adjacent
		// and around a full one — at the frame's left edge and into its
		// partial last block column and row; one anchor and ten, integer
		// anchors so that the dyadic frame's thresholds land on errors.
		for x0 := 0; x0 < jnd.FieldBlockSize; x0++ {
			for width := 1; width <= 2*jnd.FieldBlockSize+3; width++ {
				for _, at := range []geom.Rect{{X0: x0, Y0: x0}, {X0: w - x0 - width, Y0: h - 1 - x0}} {
					r := geom.Rect{X0: at.X0, Y0: at.Y0, X1: at.X0 + width, Y1: min(at.Y0+3, h)}
					l := (x0 + width) % codec.NumLevels
					k.check(t, l, r, ascending(1, float64(1+width%4), 0))
					k.check(t, l, r, ascending(10, 1, 1))
				}
			}
		}
	}
	// The dyadic frame must really put thresholds on errors.
	exact := 0
	for i, e := range dyadic.sf.errs[2] {
		for _, a := range ascending(10, 1, 1) {
			if e > 0 && float64(e) == dyadic.content[i]*a {
				exact++
			}
		}
	}
	if exact < 100 {
		t.Fatalf("only %d (pixel, anchor) pairs with d == c·a in the dyadic frame", exact)
	}
}

// FuzzPerceptibleError holds the kernel to the oracle over arbitrary
// rects, levels and ascending anchor sets on both fixtures. Plain
// `go test` replays the committed seeds under testdata/fuzz; `make
// fuzz-provider` searches.
func FuzzPerceptibleError(f *testing.F) {
	fixtures := []*kernelFixture{renderedFixture(f), dyadicFixture()}
	f.Add(uint8(0), uint16(0), uint16(0), uint16(235), uint16(117), uint8(4), uint8(7), 1.0, 0.5)
	f.Add(uint8(1), uint16(5), uint16(3), uint16(9), uint16(4), uint8(2), uint8(9), 1.0, 1.0)
	f.Fuzz(func(t *testing.T, fixture uint8, x0, y0, width, height uint16, level, n uint8, first, gap float64) {
		if !(first > 0 && first <= 1e6 && gap >= 0 && gap <= 1e6) {
			t.Skip("anchors must be positive, ascending and finite")
		}
		k := fixtures[int(fixture)%len(fixtures)]
		w, h := k.sf.orig.W, k.sf.orig.H
		r := geom.Rect{X0: int(x0) % w, Y0: int(y0) % h}
		r.X1, r.Y1 = r.X0+1+int(width)%(w-r.X0), r.Y0+1+int(height)%(h-r.Y0)
		k.check(t, int(level)%codec.NumLevels, r, ascending(1+int(n)%10, first, gap))
	})
}

// TestPreprocessWorkerCountInvariant: one worker and the default pool
// must publish the same bytes (make race runs it under -race).
func TestPreprocessWorkerCountInvariant(t *testing.T) {
	v := testVideo(scene.Tourism, 4)
	hist := testHistory(v, 2)
	encode := func() []byte {
		m, err := Preprocess(v, hist, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return m.Marshal()
	}
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	serial := encode()
	parallel.SetWorkers(0)
	if pooled := encode(); !bytes.Equal(serial, pooled) {
		t.Fatalf("manifest differs between 1 worker and the default %d", parallel.Workers())
	}
}

// TestUnusableEncoderRejected: a zero-value Encoder in the config used
// to hang the chunk analysis (block loops stepping by 0).
func TestUnusableEncoderRejected(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		v := testVideo(scene.Sports, 1)
		cfg := DefaultConfig()
		cfg.Encoder = &codec.Encoder{}
		if _, err := Preprocess(v, nil, cfg); err == nil {
			t.Error("Preprocess with a zero-value encoder should error")
		}
		if _, err := ChunkAt(v, nil, cfg, 0); err == nil {
			t.Error("ChunkAt with a zero-value encoder should error")
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a zero-value encoder hangs the provider")
	}
}

// TestDegenerateConfigRejected: the defaults replace zeros only, so a
// negative stride used to append sample indices forever and a negative
// tile count to reach make with a negative length.
func TestDegenerateConfigRejected(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		v := testVideo(scene.Sports, 1)
		for name, set := range map[string]func(*Config){
			"negative stride": func(c *Config) { c.FrameStride = -1 },
			"negative tiles":  func(c *Config) { c.Tiles = -30 },
		} {
			cfg := DefaultConfig()
			set(&cfg)
			if _, err := Preprocess(v, nil, cfg); err == nil {
				t.Errorf("%s: Preprocess should error", name)
			}
			if _, err := ChunkAt(v, nil, cfg, 0); err == nil {
				t.Errorf("%s: ChunkAt should error", name)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a degenerate config hangs the provider")
	}
}

func benchInput() (*scene.Video, []*viewport.Trace) {
	v := scene.Generate(scene.Sports, 2019, scene.Options{W: 480, H: 240, FPS: 30, DurationSec: 8})
	return v, testHistory(v, 4)
}

func BenchmarkChunkAt(b *testing.B) {
	v, hist := benchInput()
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ChunkAt(v, hist, cfg, i%v.DurationSec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPreprocess(b *testing.B) {
	v, hist := benchInput()
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Preprocess(v, hist, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerceptibleError times the pixel kernel alone: one sampled
// frame of the benchmark's video, the table build's eight anchors, the
// chunk's own 30-tile layout, one sub-benchmark per level.
func BenchmarkPerceptibleError(b *testing.B) {
	v, hist := benchInput()
	cfg := DefaultConfig()
	ch, err := ChunkAt(v, hist, cfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	sf, err := (&preprocessor{cfg: cfg, video: v}).analyzeFrame(0)
	if err != nil {
		b.Fatal(err)
	}
	defer sf.release()
	sums := make([]float64, len(manifest.AnchorRatios))
	for l := 0; l < codec.NumLevels; l++ {
		b.Run("L"+strconv.Itoa(l), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, t := range ch.Tiles {
					clear(sums)
					benchSink += perceptibleError(sf, l, t.Rect, manifest.AnchorRatios, sums)
				}
			}
		})
	}
}

var benchSink uint64
