package quality

import (
	"math"
	"os"
	"testing"

	"pano/internal/frame"
	"pano/internal/geom"
	"pano/internal/jnd"
	"pano/internal/mathx"
)

// The golden suite pins the numeric outputs of the JND/PSPNR pixel
// pipeline on a deterministic synthetic frame pair, so any rewrite of
// the kernels (the parallel one included) provably preserves numerics.
// The frames are generated in code from fixed seeds — a luminance ramp
// with a textured lower half plus bounded noise, and an "encoded" copy
// with bounded distortion — so the pair is committed without binary
// fixtures and is identical on every platform (splitmix64 and Go's
// libm are both deterministic).
//
// Regenerate the constants with:
//
//	PANO_GOLDEN_PRINT=1 go test ./internal/quality -run TestGolden -v

const goldenTol = 1e-9

func clamp8(v int) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// goldenFrames builds the committed frame pair: 64×48, ramp+texture
// original, ±8 grey distorted copy.
func goldenFrames() (orig, enc *frame.Frame) {
	const w, h = 64, 48
	orig = frame.New(w, h)
	rng := mathx.NewRNG(2019)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			base := 40 + 170*x/(w-1)
			tex := 0
			if y >= h/2 {
				tex = int(20 * math.Sin(float64(x)*0.7) * math.Cos(float64(y)*0.5))
			}
			noise := rng.Intn(7) - 3
			orig.Set(x, y, clamp8(base+tex+noise))
		}
	}
	enc = orig.Clone()
	rng = mathx.NewRNG(77)
	for i := range enc.Pix {
		enc.Pix[i] = clamp8(int(enc.Pix[i]) + rng.Intn(17) - 8)
	}
	return orig, enc
}

// Golden values produced by the serial reference kernels on the frame
// pair above (run the print mode to regenerate).
const (
	goldenFieldLen    = 3072
	goldenFieldSum    = 17117.79056377485
	goldenField0      = 9.477561938604461
	goldenFieldMid    = 9.334918122363387
	goldenFieldLast   = 7.6484375
	goldenPMSEFull    = 2.2863449514322274
	goldenPSPNRFull   = 44.53938605849036
	goldenPSPNRMoving = 70.37739992993632
	goldenPSPNRNilPro = 44.53938605849036
	goldenPMSESub     = 2.804350401283713
	goldenPSPNRSub    = 43.652480834433476
	goldenAggregate   = 41.20656778986997
)

func TestGoldenPipeline(t *testing.T) {
	orig, encFull := goldenFrames()
	full := geom.Rect{X1: orig.W, Y1: orig.H}
	sub := geom.Rect{X0: 8, Y0: 8, X1: 40, Y1: 40}
	moving := jnd.Factors{SpeedDegS: 10, DoFDiff: 0.5, LumaChange: 100}

	field := jnd.ContentField(orig, full)
	var fieldSum float64
	for _, v := range field {
		fieldSum += v
	}
	pmseFull, err := PMSE(orig, encFull, field)
	if err != nil {
		t.Fatal(err)
	}
	pspnrFull, err := TilePSPNR(jnd.Default(), orig, encFull, full, jnd.Factors{})
	if err != nil {
		t.Fatal(err)
	}
	pspnrMoving, err := TilePSPNR(jnd.Default(), orig, encFull, full, moving)
	if err != nil {
		t.Fatal(err)
	}
	pspnrNil, err := TilePSPNR(nil, orig, encFull, full, moving)
	if err != nil {
		t.Fatal(err)
	}
	encSub, err := encFull.Region(sub)
	if err != nil {
		t.Fatal(err)
	}
	pmseSub, err := TilePMSE(jnd.Default(), nil, "", orig, encSub, sub, jnd.Factors{})
	if err != nil {
		t.Fatal(err)
	}
	pspnrSub, err := TilePSPNR(jnd.Default(), orig, encSub, sub, jnd.Factors{})
	if err != nil {
		t.Fatal(err)
	}
	var pool PMSEPool
	pool.Add(float64(full.Area()), pmseFull)
	pool.Add(float64(sub.Area()), pmseSub)
	pool.Add(512, 25)
	aggregate := pool.PSPNR()

	if os.Getenv("PANO_GOLDEN_PRINT") != "" {
		t.Logf("goldenFieldLen    = %d", len(field))
		t.Logf("goldenFieldSum    = %v", fieldSum)
		t.Logf("goldenField0      = %v", field[0])
		t.Logf("goldenFieldMid    = %v", field[len(field)/2])
		t.Logf("goldenFieldLast   = %v", field[len(field)-1])
		t.Logf("goldenPMSEFull    = %v", pmseFull)
		t.Logf("goldenPSPNRFull   = %v", pspnrFull)
		t.Logf("goldenPSPNRMoving = %v", pspnrMoving)
		t.Logf("goldenPSPNRNilPro = %v", pspnrNil)
		t.Logf("goldenPMSESub     = %v", pmseSub)
		t.Logf("goldenPSPNRSub    = %v", pspnrSub)
		t.Logf("goldenAggregate   = %v", aggregate)
		t.Fatal("print mode: golden values above, not asserting")
	}

	checks := []struct {
		name      string
		got, want float64
	}{
		{"field sum", fieldSum, goldenFieldSum},
		{"field[0]", field[0], goldenField0},
		{"field[mid]", field[len(field)/2], goldenFieldMid},
		{"field[last]", field[len(field)-1], goldenFieldLast},
		{"PMSE full", pmseFull, goldenPMSEFull},
		{"TilePSPNR static", pspnrFull, goldenPSPNRFull},
		{"TilePSPNR moving", pspnrMoving, goldenPSPNRMoving},
		{"TilePSPNR nil profile", pspnrNil, goldenPSPNRNilPro},
		{"TilePMSE sub", pmseSub, goldenPMSESub},
		{"TilePSPNR sub", pspnrSub, goldenPSPNRSub},
		{"PMSEPool", aggregate, goldenAggregate},
	}
	if len(field) != goldenFieldLen {
		t.Errorf("field len = %d, want %d", len(field), goldenFieldLen)
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want) > goldenTol {
			t.Errorf("%s = %.17g, want %.17g (Δ %.3g)", c.name, c.got, c.want, c.got-c.want)
		}
	}

	// The moving-viewpoint JND must tolerate strictly more distortion.
	if pspnrMoving <= pspnrFull {
		t.Errorf("moving PSPNR %v not above static %v", pspnrMoving, pspnrFull)
	}
}

// TestGoldenStableAcrossWorkerCounts re-runs the golden pipeline at
// explicit worker counts; the constants must hold at every one.
func TestGoldenStableAcrossWorkerCounts(t *testing.T) {
	orig, enc := goldenFrames()
	full := geom.Rect{X1: orig.W, Y1: orig.H}
	for _, workers := range []int{1, 2, 8} {
		field := jnd.ContentFieldWorkers(orig, full, workers)
		var sum float64
		for _, v := range field {
			sum += v
		}
		if math.Abs(sum-goldenFieldSum) > goldenTol {
			t.Errorf("workers=%d: field sum %.17g, want %.17g", workers, sum, goldenFieldSum)
		}
		pmse, err := PMSEWorkers(orig, enc, field, workers)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pmse-goldenPMSEFull) > goldenTol {
			t.Errorf("workers=%d: PMSE %.17g, want %.17g", workers, pmse, goldenPMSEFull)
		}
	}
}
