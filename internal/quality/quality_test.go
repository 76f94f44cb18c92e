package quality

import (
	"math"
	"testing"

	"pano/internal/codec"
	"pano/internal/frame"
	"pano/internal/geom"
	"pano/internal/jnd"
	"pano/internal/mathx"
	"pano/internal/scene"
)

// uniformJND returns a constant JND field of the given size.
func uniformJND(w, h int, v float64) []float64 {
	f := make([]float64, w*h)
	for i := range f {
		f[i] = v
	}
	return f
}

func TestPSNR(t *testing.T) {
	if PSNR(0) != PSPNRCap {
		t.Error("zero MSE should cap")
	}
	// MSE 1 => 20log10(255) ≈ 48.13 dB.
	if got := PSNR(1); math.Abs(got-48.13) > 0.01 {
		t.Errorf("PSNR(1) = %v, want ≈48.13", got)
	}
	if PSNR(100) >= PSNR(1) {
		t.Error("PSNR should fall with MSE")
	}
}

func TestPMSEFiltersSubJNDNoise(t *testing.T) {
	orig := frame.New(16, 16)
	orig.Fill(100)
	enc := orig.Clone()
	for i := range enc.Pix {
		enc.Pix[i] += 4 // distortion of 4 grey levels everywhere
	}
	// JND 5: fully imperceptible.
	p, err := PMSE(orig, enc, uniformJND(16, 16, 5))
	if err != nil {
		t.Fatal(err)
	}
	if p != 0 {
		t.Errorf("sub-JND PMSE = %v, want 0", p)
	}
	// JND 1: perceptible excess is 3 per pixel -> PMSE 9.
	p, err = PMSE(orig, enc, uniformJND(16, 16, 1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-9) > 1e-9 {
		t.Errorf("PMSE = %v, want 9", p)
	}
}

func TestPMSEErrors(t *testing.T) {
	a := frame.New(8, 8)
	b := frame.New(4, 4)
	if _, err := PMSE(a, b, uniformJND(8, 8, 1)); err == nil {
		t.Error("size mismatch should error")
	}
	if _, err := PMSE(a, a.Clone(), uniformJND(4, 4, 1)); err == nil {
		t.Error("field length mismatch should error")
	}
}

func TestScaleField(t *testing.T) {
	f := []float64{1, 2, 3}
	out := ScaleField(f, 2)
	if out[0] != 2 || out[2] != 6 {
		t.Error("ScaleField wrong")
	}
	if f[0] != 1 {
		t.Error("ScaleField must not mutate input")
	}
}

func TestHigherActionRatioRaisesPSPNR(t *testing.T) {
	// The same encoded tile looks better (higher PSPNR) when the
	// viewpoint moves fast — the core of the paper's bandwidth savings.
	v := scene.Generate(scene.Sports, 3, scene.Options{W: 160, H: 80, FPS: 10, DurationSec: 1})
	f := v.RenderFrame(0)
	r := geom.Rect{X0: 0, Y0: 0, X1: 80, Y1: 80}
	enc, err := codec.NewEncoder().DistortRegion(f, r, 37)
	if err != nil {
		t.Fatal(err)
	}
	prof := jnd.Default()
	static, err := TilePSPNR(prof, f, enc, r, jnd.Factors{})
	if err != nil {
		t.Fatal(err)
	}
	moving, err := TilePSPNR(prof, f, enc, r, jnd.Factors{SpeedDegS: 20})
	if err != nil {
		t.Fatal(err)
	}
	if moving <= static {
		t.Errorf("moving PSPNR %v should exceed static %v", moving, static)
	}
}

func TestPSPNRAboveTraditionalPSNRStyle(t *testing.T) {
	// PSPNR with any JND filtering is at least the plain PSNR of the
	// same pair, because perceptible error is a lower bound on error.
	v := scene.Generate(scene.Documentary, 4, scene.Options{W: 160, H: 80, FPS: 10, DurationSec: 1})
	f := v.RenderFrame(0)
	r := geom.Rect{X0: 0, Y0: 0, X1: 160, Y1: 80}
	enc, err := codec.NewEncoder().DistortRegion(f, r, 42)
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := f.Region(r)
	mse, _ := frame.MSE(sub, enc)
	pspnr, err := TilePSPNR(jnd.Default(), f, enc, r, jnd.Factors{})
	if err != nil {
		t.Fatal(err)
	}
	if pspnr < PSNR(mse) {
		t.Errorf("PSPNR %v below PSNR %v", pspnr, PSNR(mse))
	}
}

func TestTilePSPNRMonotoneInQP(t *testing.T) {
	v := scene.Generate(scene.Adventure, 9, scene.Options{W: 160, H: 80, FPS: 10, DurationSec: 1})
	f := v.RenderFrame(0)
	r := geom.Rect{X0: 40, Y0: 20, X1: 120, Y1: 60}
	e := codec.NewEncoder()
	prev := math.Inf(1)
	for _, qp := range codec.QPLevels {
		enc, err := e.DistortRegion(f, r, qp)
		if err != nil {
			t.Fatal(err)
		}
		p, err := TilePSPNR(jnd.Default(), f, enc, r, jnd.Factors{})
		if err != nil {
			t.Fatal(err)
		}
		if p > prev+1e-9 {
			t.Errorf("PSPNR rose from %v to %v as QP worsened to %d", prev, p, qp)
		}
		prev = p
	}
}

func TestPMSEPool(t *testing.T) {
	pooled := func(pmses, areas []float64) float64 {
		var pool PMSEPool
		for i := range pmses {
			pool.Add(areas[i], pmses[i])
		}
		return pool.PSPNR()
	}
	// Equal areas, PMSEs 4 and 16 -> mean 10.
	got := pooled([]float64{4, 16}, []float64{100, 100})
	want := PSPNRFromPMSE(10)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("pooled = %v, want %v", got, want)
	}
	// Weighting matters.
	if skew := pooled([]float64{4, 16}, []float64{300, 100}); skew <= got {
		t.Error("weighting toward the better tile should raise PSPNR")
	}
	// Degenerate inputs.
	if pooled(nil, nil) != 0 {
		t.Error("an empty pool should be 0")
	}
	if pooled([]float64{1}, []float64{0}) != 0 {
		t.Error("zero total area should be 0")
	}

	// PMSEPool is bit-equal to the inline poolings it replaced: area·pmse
	// (the estimators and the pixel scorer), pmse·area (the deleted
	// AggregatePSPNR) and a stale tile's area·factor·pmse over area alone
	// (FramePSPNRDegraded), on random areas, overlaps and PMSEs.
	rng := mathx.NewRNG(45)
	for trial := 0; trial < 2000; trial++ {
		var pool, stale PMSEPool
		var num, den, aggNum, staleNum float64
		for range 1 + rng.Intn(72) {
			w := float64(1 + rng.Intn(400*200))
			if rng.Intn(8) == 0 {
				w = float64(rng.Intn(3)) // thin overlaps, zero included
			}
			pmse := math.Exp(rng.Range(-12, 10))
			factor := 1.0
			if rng.Intn(3) == 0 {
				factor = 2 // player.StalePMSEFactor
			}
			pool.Add(w, pmse)
			num += w * pmse
			den += w
			aggNum += pmse * w
			stale.Add(w, factor*pmse)
			staleNum += w * factor * pmse
		}
		old := func(num, den float64) float64 {
			if den == 0 {
				return 0
			}
			return PSPNRFromPMSE(num / den)
		}
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"area·pmse", pool.PSPNR(), old(num, den)},
			{"pmse·area", pool.PSPNR(), old(aggNum, den)},
			{"area·factor·pmse", stale.PSPNR(), old(staleNum, den)},
		} {
			if math.Float64bits(c.got) != math.Float64bits(c.want) {
				t.Fatalf("trial %d %s: pooled %v, inline %v", trial, c.name, c.got, c.want)
			}
		}
	}
}

func TestMOSBands(t *testing.T) {
	cases := []struct {
		pspnr float64
		mos   int
	}{
		{30, 1}, {45, 1}, {46, 2}, {53, 2}, {54, 3}, {61, 3}, {62, 4}, {69, 4}, {70, 5}, {95, 5},
	}
	for _, c := range cases {
		if got := MOSFromPSPNR(c.pspnr); got != c.mos {
			t.Errorf("MOS(%v) = %d, want %d", c.pspnr, got, c.mos)
		}
	}
}
