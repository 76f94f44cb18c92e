package provider

import (
	"bytes"
	"math"
	"testing"
	"time"

	"pano/internal/codec"
	"pano/internal/frame"
	"pano/internal/geom"
	"pano/internal/jnd"
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

func TestPerceptibleErrorMatchesOracle(t *testing.T) {
	v := scene.Generate(scene.Gaming, 3, scene.Options{W: 240, H: 120, FPS: 10, DurationSec: 1})
	p := &preprocessor{cfg: DefaultConfig(), video: v}
	sf, err := p.analyzeFrame(4)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.release()
	full := geom.Rect{X1: v.W, Y1: v.H}
	content := jnd.ContentField(sf.orig, full)
	var enc [codec.NumLevels]*frame.Frame
	for l := range enc {
		if enc[l], err = p.cfg.Encoder.DistortRegion(sf.orig, full, codec.Level(l).QP()); err != nil {
			t.Fatal(err)
		}
	}

	rng := mathx.NewRNG(17)
	for i := 0; i < 300; i++ {
		x0, y0 := rng.Intn(v.W), rng.Intn(v.H)
		r := geom.Rect{X0: x0, Y0: y0, X1: x0 + 1 + rng.Intn(v.W-x0), Y1: y0 + 1 + rng.Intn(v.H-y0)}
		l := rng.Intn(codec.NumLevels)
		anchors := make([]float64, 1+rng.Intn(10))
		a := rng.Range(0.05, 2)
		for j := range anchors {
			anchors[j] = a
			a += rng.Range(0.01, 3)
		}

		sums := make([]float64, len(anchors))
		sq := perceptibleError(sf, l, r, anchors, sums)
		want := pmseAtAnchors(sf.orig, enc[l], content, r, anchors)
		for j := range want {
			if got := sums[j] / float64(r.Area()); got != want[j] {
				t.Fatalf("rect %v level %d anchor %v: PMSE %v, oracle %v", r, l, anchors[j], got, want[j])
			}
		}
		// The A=0 anchor of the oracle is the plain MSE.
		if got, want := float64(sq)/float64(r.Area()), pmseAtAnchors(sf.orig, enc[l], content, r, []float64{0})[0]; got != want {
			t.Fatalf("rect %v level %d: MSE %v, oracle %v", r, l, got, want)
		}
	}
}

// TestPreprocessWorkerCountInvariant: one worker and the default pool
// must publish the same bytes (make race-kernels runs it under -race).
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
