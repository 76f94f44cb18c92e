package viewport

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"pano/internal/geom"
	"pano/internal/mathx"
	"pano/internal/scene"
)

func linearTrace(yawRate, pitch0 float64, n int) *Trace {
	tr := &Trace{YawDeg: make([]float64, n), PitchDeg: make([]float64, n)}
	for i := 0; i < n; i++ {
		tr.YawDeg[i] = yawRate * float64(i) * RefreshInterval
		tr.PitchDeg[i] = pitch0
	}
	return tr
}

func testVideo() *scene.Video {
	return scene.Generate(scene.Sports, 11, scene.Options{W: 120, H: 60, FPS: 10, DurationSec: 20})
}

func TestTraceAtInterpolates(t *testing.T) {
	tr := linearTrace(10, 5, 101) // 10 deg/s for 5 s
	a := tr.At(1.0)
	if math.Abs(a.Yaw-10) > 1e-9 || a.Pitch != 5 {
		t.Errorf("At(1) = %v", a)
	}
	mid := tr.At(1.025) // between samples
	if math.Abs(mid.Yaw-10.25) > 1e-9 {
		t.Errorf("interpolated yaw = %v, want 10.25", mid.Yaw)
	}
	// Clamped outside the span.
	if tr.At(-1) != tr.At(0) || tr.At(100) != tr.At(5) {
		t.Error("At should clamp outside the trace")
	}
}

func TestTraceAtNormalizesYaw(t *testing.T) {
	tr := linearTrace(100, 0, 201) // reaches 1000 degrees unwrapped
	a := tr.At(10)
	if a.Yaw < -180 || a.Yaw >= 180 {
		t.Errorf("yaw %v not normalized", a.Yaw)
	}
}

func TestSpeedAt(t *testing.T) {
	tr := linearTrace(20, 0, 101)
	if got := tr.SpeedAt(2); math.Abs(got-20) > 1e-6 {
		t.Errorf("speed = %v, want 20", got)
	}
	still := linearTrace(0, 0, 101)
	if got := still.SpeedAt(2); got != 0 {
		t.Errorf("static speed = %v, want 0", got)
	}
	empty := &Trace{}
	if empty.SpeedAt(0) != 0 {
		t.Error("empty trace speed should be 0")
	}
}

func TestMinSpeedIsLowerBound(t *testing.T) {
	// Figure 10: the min speed over the recent window is a conservative
	// (lower-bound) estimate of near-future speed for real-ish traces.
	v := testVideo()
	tr := Synthesize(v, 5, DefaultSynthesizeOpts())
	under := 0
	total := 0
	for now := 3.0; now < 16; now += 0.5 {
		bound := tr.MinSpeedIn(now-2, now)
		actual := tr.SpeedAt(now + 0.5)
		total++
		if bound <= actual+1.0 { // 1 deg/s slack for jitter
			under++
		}
	}
	if frac := float64(under) / float64(total); frac < 0.75 {
		t.Errorf("lower bound held only %.0f%% of the time", frac*100)
	}
}

func TestMinSpeedInReversedWindow(t *testing.T) {
	tr := linearTrace(10, 0, 101)
	if got := tr.MinSpeedIn(3, 1); math.Abs(got-10) > 1e-6 {
		t.Errorf("reversed window min speed = %v", got)
	}
}

func TestPredictorLinearMotionIsExact(t *testing.T) {
	tr := linearTrace(15, 0, 201)
	p := NewPredictor()
	pred := p.Predict(tr, 5, 1)
	truth := tr.At(6)
	if geom.GreatCircleDeg(pred, truth) > 0.5 {
		t.Errorf("prediction %v, truth %v", pred, truth)
	}
	if err := p.PredictError(tr, 5, 1); err > 0.5 {
		t.Errorf("predict error = %v, want ~0", err)
	}
}

func TestPredictorDegenerateTraces(t *testing.T) {
	p := NewPredictor()
	one := &Trace{YawDeg: []float64{3}, PitchDeg: []float64{4}}
	got := p.Predict(one, 0, 1)
	if math.Abs(got.Yaw-3) > 1e-9 || math.Abs(got.Pitch-4) > 1e-9 {
		t.Errorf("single-sample prediction = %v", got)
	}
}

// TestPredictAllocatesOnlyBeyondItsBuffer: the default window is fitted
// over stack buffers; a window longer than predictStackSamples moves to
// the heap and predicts the same line.
func TestPredictAllocatesOnlyBeyondItsBuffer(t *testing.T) {
	tr := linearTrace(15, 3, 401)
	p := NewPredictor()
	if allocs := testing.AllocsPerRun(100, func() { p.Predict(tr, 10, 1) }); allocs != 0 {
		t.Errorf("%v allocs per Predict over a %.1f s window, want 0", allocs, p.HistoryWindow)
	}
	long := &Predictor{HistoryWindow: 2 * predictStackSamples * RefreshInterval}
	if allocs := testing.AllocsPerRun(100, func() { long.Predict(tr, 10, 1) }); allocs == 0 {
		t.Errorf("a %d-sample window cannot fit %d-sample stack buffers", 2*predictStackSamples, predictStackSamples)
	}
	got, want := long.Predict(tr, 10, 1), tr.At(11)
	if geom.GreatCircleDeg(got, want) > 1e-6 {
		t.Errorf("long-window prediction %v, truth %v", got, want)
	}
}

func TestSynthesizeDeterministicAndCoversDuration(t *testing.T) {
	v := testVideo()
	a := Synthesize(v, 9, DefaultSynthesizeOpts())
	b := Synthesize(v, 9, DefaultSynthesizeOpts())
	if a.Len() != b.Len() {
		t.Fatal("length mismatch")
	}
	for i := range a.YawDeg {
		if a.YawDeg[i] != b.YawDeg[i] {
			t.Fatal("synthesis should be deterministic")
		}
	}
	if d := a.Duration(); math.Abs(d-float64(v.DurationSec)) > 0.1 {
		t.Errorf("duration = %v, want %d", d, v.DurationSec)
	}
	c := Synthesize(v, 10, DefaultSynthesizeOpts())
	if c.YawDeg[50] == a.YawDeg[50] && c.YawDeg[100] == a.YawDeg[100] {
		t.Error("different seeds should differ")
	}
}

func TestSynthesizeTracksObjects(t *testing.T) {
	// Always tracking an object, the viewpoint should stay near some object
	// most of the time.
	v := testVideo()
	tr := synthesize(v, 4, 1)
	near := 0
	total := 0
	for ti := 2.0; ti < 18; ti += 0.25 {
		vp := tr.At(ti)
		best := math.Inf(1)
		for _, o := range v.Objects {
			if d := geom.GreatCircleDeg(vp, o.PositionAt(ti)); d < best {
				best = d
			}
		}
		total++
		if best < 30 {
			near++
		}
	}
	if frac := float64(near) / float64(total); frac < 0.6 {
		t.Errorf("tracking fraction = %.2f, want most of the time", frac)
	}
}

func TestSynthesizedSpeedsPlausible(t *testing.T) {
	// Figure 3 left: real traces show speeds from near-0 up to tens of
	// deg/s. The synthesized distribution should span that range.
	v := testVideo()
	tr := Synthesize(v, 21, DefaultSynthesizeOpts())
	var speeds []float64
	for ti := 1.0; ti < 19; ti += 0.1 {
		speeds = append(speeds, tr.SpeedAt(ti))
	}
	cdf := mathx.NewCDF(speeds)
	if cdf.Quantile(0.9) < 10 {
		t.Errorf("p90 speed = %v, want ≥ 10 deg/s for sports", cdf.Quantile(0.9))
	}
	if cdf.Quantile(0.1) > 15 {
		t.Errorf("p10 speed = %v, want slow dwell periods", cdf.Quantile(0.1))
	}
}

func TestAddNoiseShiftsWithinBound(t *testing.T) {
	tr := linearTrace(5, 0, 101)
	rng := mathx.NewRNG(8)
	noisy := tr.AddNoise(30, rng)
	if noisy.Len() != tr.Len() {
		t.Fatal("noise changed length")
	}
	var moved bool
	for i := range tr.YawDeg {
		dy := noisy.YawDeg[i] - tr.YawDeg[i]
		dp := noisy.PitchDeg[i] - tr.PitchDeg[i]
		// Pitch clamping can shorten the shift but never lengthen it.
		if math.Hypot(dy, dp) > 30+1e-9 {
			t.Fatalf("sample %d shifted by %v > 30", i, math.Hypot(dy, dp))
		}
		if dy != 0 || dp != 0 {
			moved = true
		}
	}
	if !moved {
		t.Error("noise should move samples")
	}
	// Zero noise level leaves the trace intact.
	same := tr.AddNoise(0, rng)
	for i := range tr.YawDeg {
		if same.YawDeg[i] != tr.YawDeg[i] {
			t.Fatal("zero noise should be identity")
		}
	}
}

func TestMaxLumaChange(t *testing.T) {
	tr := linearTrace(0, 0, 201)
	// Luminance ramps down over time at the fixed viewpoint.
	luma := func(_ geom.Angle, t float64) float64 { return 200 - 20*t }
	got := tr.MaxLumaChange(5, 5, RefreshInterval, luma)
	if math.Abs(got-100) > 1e-6 {
		t.Errorf("luma change = %v, want 100", got)
	}
	// Window clips at t=0.
	got = tr.MaxLumaChange(2, 5, RefreshInterval, luma)
	if math.Abs(got-40) > 1e-6 {
		t.Errorf("clipped luma change = %v, want 40", got)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	v := testVideo()
	tr := Synthesize(v, 13, DefaultSynthesizeOpts())
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("round trip length %d vs %d", back.Len(), tr.Len())
	}
	for _, ti := range []float64{0, 3.3, 7.7, 15} {
		a, b := tr.At(ti), back.At(ti)
		if geom.GreatCircleDeg(a, b) > 0.01 {
			t.Errorf("t=%v: %v vs %v", ti, a, b)
		}
	}
}

func TestParseCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"t,yaw,pitch\n",
		"0.0,abc,1\n",
		"0.0,1\n",
		"0.0,1,xyz\n",
	}
	for i, c := range cases {
		if _, err := ParseCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestParseCSVUnwrapsSeam(t *testing.T) {
	// A steady 80 deg/s sweep through the ±180° seam.
	var b strings.Builder
	b.WriteString("t,yaw,pitch\n")
	for i := 0; i < 20; i++ {
		yaw := 150.0 + 4*float64(i) // crosses the seam at sample ~8
		fmt.Fprintf(&b, "%.2f,%.2f,0\n", float64(i)*RefreshInterval, normYawForTest(yaw))
	}
	tr, err := ParseCSV(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	// Unwrapped yaw should increase monotonically through the seam.
	for i := 1; i < tr.Len(); i++ {
		if tr.YawDeg[i] <= tr.YawDeg[i-1] {
			t.Fatalf("yaw not unwrapped: %v", tr.YawDeg)
		}
	}
	if got := tr.SpeedAt(0.45); math.Abs(got-80) > 2 {
		t.Errorf("speed through seam = %v, want ~80", got)
	}
}

func normYawForTest(y float64) float64 {
	for y >= 180 {
		y -= 360
	}
	for y < -180 {
		y += 360
	}
	return y
}
