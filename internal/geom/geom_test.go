package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormYaw(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0}, {180, -180}, {-180, -180}, {360, 0}, {-360, 0},
		{190, -170}, {-190, 170}, {540, -180}, {720.5, 0.5},
	}
	for _, c := range cases {
		if got := NormYaw(c.in); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("NormYaw(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestNormYawPropertyRange(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
			return true
		}
		y := NormYaw(x)
		return y >= -180 && y < 180
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClampPitch(t *testing.T) {
	if ClampPitch(95) != 90 || ClampPitch(-95) != -90 || ClampPitch(12) != 12 {
		t.Fatal("ClampPitch misbehaves")
	}
}

func TestYawDelta(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{0, 10, 10}, {170, -170, 20}, {-170, 170, -20}, {10, 0, -10},
	}
	for _, c := range cases {
		if got := YawDelta(c.a, c.b); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("YawDelta(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestGreatCircleDeg(t *testing.T) {
	a := Angle{Yaw: 0, Pitch: 0}
	b := Angle{Yaw: 90, Pitch: 0}
	if got := GreatCircleDeg(a, b); math.Abs(got-90) > 1e-6 {
		t.Errorf("equatorial quarter arc = %v, want 90", got)
	}
	c := Angle{Yaw: 0, Pitch: 90}
	if got := GreatCircleDeg(a, c); math.Abs(got-90) > 1e-6 {
		t.Errorf("pole arc = %v, want 90", got)
	}
	// Near the pole, yaw differences shrink.
	p1 := Angle{Yaw: 0, Pitch: 89}
	p2 := Angle{Yaw: 90, Pitch: 89}
	if got := GreatCircleDeg(p1, p2); got > 5 {
		t.Errorf("near-pole distance = %v, want small", got)
	}
}

func TestGreatCirclePropertySymmetricNonNegative(t *testing.T) {
	f := func(y1, p1, y2, p2 float64) bool {
		if anyBad(y1, p1, y2, p2) {
			return true
		}
		a := Angle{Yaw: y1, Pitch: p1}.Norm()
		b := Angle{Yaw: y2, Pitch: p2}.Norm()
		d1 := GreatCircleDeg(a, b)
		d2 := GreatCircleDeg(b, a)
		return d1 >= 0 && d1 <= 180+1e-9 && math.Abs(d1-d2) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFramePixelRoundTrip(t *testing.T) {
	f := Frame{W: 480, H: 240}
	for _, a := range []Angle{{0, 0}, {-179, 45}, {120, -60}, {179, 89}} {
		x, y := f.ToPixel(a)
		back := f.ToAngle(x, y)
		if math.Abs(YawDelta(a.Yaw, back.Yaw)) > 1.0 || math.Abs(a.Pitch-back.Pitch) > 1.0 {
			t.Errorf("round trip %v -> (%d,%d) -> %v", a, x, y, back)
		}
	}
}

func TestFramePPD(t *testing.T) {
	f := Frame{W: 2880, H: 1440}
	if f.PPDYaw() != 8 || f.PPDPitch() != 8 {
		t.Errorf("PPD = (%v,%v), want (8,8)", f.PPDYaw(), f.PPDPitch())
	}
}

func TestRectOps(t *testing.T) {
	a := Rect{X0: 0, Y0: 0, X1: 10, Y1: 10}
	b := Rect{X0: 5, Y0: 5, X1: 15, Y1: 15}
	if got := a.OverlapArea(b); got != 25 {
		t.Errorf("overlap = %d, want 25", got)
	}
	if a.Area() != 100 || a.W() != 10 || a.H() != 10 {
		t.Error("Rect dimension accessors wrong")
	}
	c := Rect{X0: 20, Y0: 20, X1: 30, Y1: 30}
	if !a.Intersect(c).Empty() {
		t.Error("disjoint rects should have empty intersection")
	}
	if !a.Contains(0, 0) || a.Contains(10, 10) {
		t.Error("Contains half-open semantics violated")
	}
}

func TestViewportFootprintCentered(t *testing.T) {
	f := Frame{W: 360, H: 180}
	v := Viewport{Center: Angle{Yaw: 0, Pitch: 0}, WidthDeg: 110, HeightDeg: 90}
	rects := v.Footprint(f)
	if len(rects) != 1 {
		t.Fatalf("centered viewport rects = %d, want 1", len(rects))
	}
	r := rects[0]
	if r.W() < 108 || r.W() > 112 {
		t.Errorf("viewport width px = %d, want ~110", r.W())
	}
	if r.H() < 88 || r.H() > 92 {
		t.Errorf("viewport height px = %d, want ~90", r.H())
	}
}

func TestViewportFootprintWrapsSeam(t *testing.T) {
	f := Frame{W: 360, H: 180}
	v := Viewport{Center: Angle{Yaw: 179, Pitch: 0}, WidthDeg: 110, HeightDeg: 90}
	rects := v.Footprint(f)
	if len(rects) != 2 {
		t.Fatalf("seam viewport rects = %d, want 2", len(rects))
	}
	total := 0
	for _, r := range rects {
		total += r.W()
	}
	if total < 108 || total > 112 {
		t.Errorf("seam viewport total width = %d, want ~110", total)
	}
}

func TestViewportFootprintAreaInvariant(t *testing.T) {
	f := Frame{W: 480, H: 240}
	check := func(yaw, pitch float64) bool {
		v := DefaultViewport(Angle{Yaw: yaw, Pitch: pitch}.Norm())
		area := 0
		for _, r := range v.Footprint(f) {
			if r.X0 < 0 || r.Y0 < 0 || r.X1 > f.W || r.Y1 > f.H {
				return false
			}
			area += r.Area()
		}
		return area > 0 && area <= f.W*f.H
	}
	for _, yaw := range []float64{-180, -135, -1, 0, 1, 90, 178, 179.5} {
		for _, pitch := range []float64{-89, -45, 0, 45, 89} {
			if !check(yaw, pitch) {
				t.Errorf("footprint invariant failed at yaw=%v pitch=%v", yaw, pitch)
			}
		}
	}
}

func TestViewportContains(t *testing.T) {
	v := DefaultViewport(Angle{Yaw: 175, Pitch: 0})
	if !v.Contains(Angle{Yaw: -175, Pitch: 0}) {
		t.Error("viewport should wrap the seam")
	}
	if v.Contains(Angle{Yaw: 0, Pitch: 0}) {
		t.Error("viewport should not contain the antipode region")
	}
}

func anyBad(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e9 {
			return true
		}
	}
	return false
}
