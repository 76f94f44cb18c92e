package codec

import (
	"bytes"
	"math"
	"testing"
	"time"

	"pano/internal/frame"
	"pano/internal/geom"
	"pano/internal/mathx"
	"pano/internal/scene"
)

// The oracles below are the per-pixel quantizer and bit model as they
// stood before the tables: math.Round per pixel, At/Set access, one
// MeanLuma per block. The table-driven kernels must reproduce them bit
// for bit.

func referencePix(v float64) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(math.Round(v))
}

func referenceDistort(e *Encoder, f *frame.Frame, qp int) {
	step := QStep(qp)
	dcStep := step / 2
	b := e.BlockSize
	for by := 0; by < f.H; by += b {
		for bx := 0; bx < f.W; bx += b {
			r := geom.Rect{X0: bx, Y0: by, X1: minInt(bx+b, f.W), Y1: minInt(by+b, f.H)}
			mean := f.MeanLuma(r)
			qMean := math.Round(mean/dcStep) * dcStep
			for y := r.Y0; y < r.Y1; y++ {
				for x := r.X0; x < r.X1; x++ {
					res := float64(f.At(x, y)) - mean
					qRes := math.Round(res/step) * step
					f.Set(x, y, referencePix(qMean+qRes))
				}
			}
		}
	}
}

func referenceRegionBits(e *Encoder, f *frame.Frame, r geom.Rect, qp int) float64 {
	step := QStep(qp)
	b := e.BlockSize
	var total float64
	for by := r.Y0; by < r.Y1; by += b {
		for bx := r.X0; bx < r.X1; bx += b {
			blk := geom.Rect{X0: bx, Y0: by, X1: minInt(bx+b, r.X1), Y1: minInt(by+b, r.Y1)}
			mean := f.MeanLuma(blk)
			bits := 4.0
			for y := blk.Y0; y < blk.Y1; y++ {
				for x := blk.X0; x < blk.X1; x++ {
					level := math.Round((float64(f.At(x, y)) - mean) / step)
					if level != 0 {
						bits += 2*math.Log2(math.Abs(level)+1) + 1
					}
				}
			}
			if bx == r.X0 || by == r.Y0 || bx+b >= r.X1 || by+b >= r.Y1 {
				bits *= e.BoundaryPenalty
			}
			total += bits
		}
	}
	return total
}

// noisyFrame mixes flat, ramped and noisy content so blocks cover small
// and large residuals and both clamp ends.
func noisyFrame(w, h int, seed uint64) *frame.Frame {
	f := frame.New(w, h)
	rng := mathx.NewRNG(seed)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 255 * x / w
			switch (x/16 + y/16) % 3 {
			case 1:
				v += rng.Intn(31) - 15
			case 2:
				v = rng.Intn(256)
			}
			f.Pix[y*w+x] = uint8(min(max(v, 0), 255))
		}
	}
	return f
}

// TestQuantTableExhaustive checks every table entry a full 4×4 block
// can reach — and the (Σ, p) pairs it cannot — against the per-pixel
// arithmetic, at the five levels: the byte the two index tables select
// is the reference decode of the quantized mean plus the quantized
// residual, and no index selects two bytes (the a + 2b identity the
// decoded-byte table stands on).
func TestQuantTableExhaustive(t *testing.T) {
	e := NewEncoder()
	area := e.BlockSize * e.BlockSize
	for l := 0; l < NumLevels; l++ {
		qp := Level(l).QP()
		tab := e.quantizer(qp)
		if tab.mean == nil {
			t.Fatalf("no table for block size %d", e.BlockSize)
		}
		step := QStep(qp)
		byIndex := make([]int, len(tab.pix)) // 1 + the byte every (Σ, p) reaching the index must decode to
		for sum := 0; sum <= 255*area; sum++ {
			mean := float64(sum) / float64(area)
			qMean := quantMean(mean, step)
			for p := 0; p < 256; p++ {
				res := float64(p) - mean
				want := referencePix(qMean + quantResidual(res, step))
				n := area*p - sum
				k := int(tab.mean[sum]) + int(tab.res[n+tab.off])
				if got := tab.pix[k]; got != want {
					t.Fatalf("QP%d Σ=%d p=%d: decoded %d, want %d", qp, sum, p, got, want)
				}
				if byIndex[k] != 0 && byIndex[k] != int(want)+1 {
					t.Fatalf("QP%d Σ=%d p=%d: index %d decodes to %d and to %d", qp, sum, p, k, want, byIndex[k]-1)
				}
				byIndex[k] = int(want) + 1
				wantBits := 0.0
				if level := math.Round(res / step); level != 0 {
					wantBits = 2*math.Log2(math.Abs(level)+1) + 1
				}
				if got := tab.bits[n+tab.off]; got != wantBits {
					t.Fatalf("QP%d Σ=%d p=%d: coefficient bits %v, want %v", qp, sum, p, got, wantBits)
				}
			}
		}
	}
}

// TestEveryQPTabulates: building a table enumerates every index pair
// (a, b) the quantizer can emit and drops the tables if two pairs with
// one a + 2b decode differently. No H.264 QP may take that exit — the
// kernels would be correct but slow, and nothing else would notice — and
// a QP whose indices overflow int16 must, and still decode correctly.
func TestEveryQPTabulates(t *testing.T) {
	e := NewEncoder()
	for qp := 0; qp < 52; qp++ {
		if e.quantizer(qp).pix == nil {
			t.Errorf("QP%d: no tables", qp)
		}
	}
	const tiny = -40 // step 2^(-44/6): round(255/dcStep) > MaxInt16
	if e.quantizer(tiny).pix != nil {
		t.Fatalf("QP%d: tables with indices beyond int16", tiny)
	}
	f := noisyFrame(32, 16, 5)
	got, err := e.DistortRegion(f, geom.Rect{X1: f.W, Y1: f.H}, tiny)
	if err != nil {
		t.Fatal(err)
	}
	referenceDistort(e, f, tiny)
	if !bytes.Equal(got.Pix, f.Pix) {
		t.Fatalf("QP%d: the direct path differs from the per-pixel quantizer", tiny)
	}
}

// TestKernelsMatchReference runs DistortRegion, ErrorPlanes and
// FrameRegionBits on random regions — most not multiples of the block
// size, so partial edge blocks take the direct path — against the
// oracles, for table-driven and table-less block sizes.
func TestKernelsMatchReference(t *testing.T) {
	f := noisyFrame(97, 61, 11)
	rng := mathx.NewRNG(12)
	for _, bs := range []int{4, 8, 3, 16} {
		e := NewEncoder()
		e.BlockSize = bs
		for i := 0; i < 40; i++ {
			x0, y0 := rng.Intn(f.W-1), rng.Intn(f.H-1)
			r := geom.Rect{X0: x0, Y0: y0, X1: x0 + 1 + rng.Intn(f.W-x0), Y1: y0 + 1 + rng.Intn(f.H-y0)}
			qp := rng.Intn(52)
			if i%2 == 0 {
				qp = Level(rng.Intn(NumLevels)).QP()
			}
			got, err := e.DistortRegion(f, r, qp)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := f.Region(r)
			referenceDistort(e, want, qp)
			if !bytes.Equal(got.Pix, want.Pix) {
				t.Fatalf("block %d region %v QP%d: DistortRegion differs from the per-pixel quantizer", bs, r, qp)
			}
			if got, want := e.FrameRegionBits(f, r, qp), referenceRegionBits(e, f, r, qp); got != want {
				t.Fatalf("block %d region %v QP%d: FrameRegionBits %v, want %v", bs, r, qp, got, want)
			}
		}

		planes := make([]uint8, NumLevels*f.W*f.H)
		if err := e.ErrorPlanes(f, planes); err != nil {
			t.Fatal(err)
		}
		for l := 0; l < NumLevels; l++ {
			enc := f.Clone()
			referenceDistort(e, enc, Level(l).QP())
			for i, p := range f.Pix {
				want := int(p) - int(enc.Pix[i])
				if want < 0 {
					want = -want
				}
				if got := int(planes[l*len(f.Pix)+i]); got != want {
					t.Fatalf("block %d level %d pixel %d: error %d, want %d", bs, l, i, got, want)
				}
			}
		}
	}
}

func TestTileLevelBitsMatchesTileChunkBits(t *testing.T) {
	v := testVideo()
	e := NewEncoder()
	key, next := v.RenderFrame(0), v.RenderFrame(3)
	r := geom.Rect{X0: 10, Y0: 10, X1: 90, Y1: 70}
	bits := e.TileLevelBits(key, next, r, 30)
	for l, got := range bits {
		if want := e.TileChunkBits(key, next, r, Level(l).QP(), 30); got != want {
			t.Errorf("level %d: %v, want %v", l, got, want)
		}
	}
}

// TestZeroBlockSizeRejected: an Encoder without a block size used to
// loop forever (by += 0).
func TestZeroBlockSizeRejected(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		f := frame.New(16, 16)
		full := geom.Rect{X1: 16, Y1: 16}
		for _, e := range []*Encoder{{}, {BlockSize: -4}} {
			if _, err := e.DistortRegion(f, full, 32); err == nil {
				t.Errorf("DistortRegion with block size %d should error", e.BlockSize)
			}
			if err := e.ErrorPlanes(f, make([]uint8, NumLevels*256)); err == nil {
				t.Errorf("ErrorPlanes with block size %d should error", e.BlockSize)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("FrameRegionBits with block size %d should panic", e.BlockSize)
					}
				}()
				e.FrameRegionBits(f, full, 32)
			}()
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("an encoder without a block size hangs")
	}
}

func TestErrorPlanesRejectsWrongSlab(t *testing.T) {
	f := frame.New(16, 16)
	if err := NewEncoder().ErrorPlanes(f, make([]uint8, 16*16)); err == nil {
		t.Error("a slab that does not hold NumLevels planes should error")
	}
}

var benchSink int

// benchFrame is a frame of the benchmark's video shape and genre.
func benchFrame() *frame.Frame {
	return scene.Generate(scene.Sports, 2019, scene.Options{W: 480, H: 240, FPS: 30, DurationSec: 1}).RenderFrame(0)
}

func BenchmarkErrorPlanes(b *testing.B) {
	f := benchFrame()
	e := NewEncoder()
	planes := make([]uint8, NumLevels*len(f.Pix))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.ErrorPlanes(f, planes); err != nil {
			b.Fatal(err)
		}
	}
	benchSink += int(planes[0])
}

func BenchmarkDistortRegion(b *testing.B) {
	f := benchFrame()
	e := NewEncoder()
	full := geom.Rect{X1: f.W, Y1: f.H}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := e.DistortRegion(f, full, 32)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += int(enc.Pix[0])
	}
}
