package jnd

import (
	"math"
	"testing"
	"testing/quick"

	"pano/internal/frame"
	"pano/internal/geom"
)

func TestDefaultProfileValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPaperThresholds(t *testing.T) {
	// §2.3: users tolerate 50% more distortion beyond 10 deg/s,
	// 200 grey levels, and 0.7 dioptre.
	p := Default()
	if got := p.Fv(10); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("Fv(10) = %v, want 1.5", got)
	}
	if got := p.Fl(200); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("Fl(200) = %v, want 1.5", got)
	}
	if got := p.Fd(0.7); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("Fd(0.7) = %v, want 1.5", got)
	}
}

func TestMultipliersIdentityAtZero(t *testing.T) {
	p := Default()
	if p.Fv(0) != 1 || p.Fd(0) != 1 || p.Fl(0) != 1 {
		t.Error("multipliers must equal 1 at zero")
	}
	if got := p.ActionRatio(Factors{}); got != 1 {
		t.Errorf("A(0,0,0) = %v, want 1", got)
	}
}

func TestMultipliersMonotone(t *testing.T) {
	p := Default()
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		a, b = math.Abs(a), math.Abs(b)
		if a > b {
			a, b = b, a
		}
		return p.Fv(a) <= p.Fv(b)+1e-12 &&
			p.Fd(a/100) <= p.Fd(b/100)+1e-12 &&
			p.Fl(a) <= p.Fl(b)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNegativeInputsMirror(t *testing.T) {
	p := Default()
	if p.Fv(-10) != p.Fv(10) || p.Fd(-1) != p.Fd(1) || p.Fl(-100) != p.Fl(100) {
		t.Error("multipliers should use magnitudes")
	}
}

func TestActionRatioIsProduct(t *testing.T) {
	p := Default()
	f := Factors{SpeedDegS: 12, DoFDiff: 0.9, LumaChange: 150}
	want := p.Fv(12) * p.Fd(0.9) * p.Fl(150)
	if got := p.ActionRatio(f); math.Abs(got-want) > 1e-12 {
		t.Errorf("ActionRatio = %v, want product %v", got, want)
	}
}

func TestFactorsZero(t *testing.T) {
	if !(Factors{}).Zero() {
		t.Error("zero factors should report Zero")
	}
	if (Factors{SpeedDegS: 1}).Zero() {
		t.Error("non-zero factors should not report Zero")
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	cases := []*Profile{
		{SpeedX: []float64{0}, SpeedY: []float64{1}}, // too short
		{SpeedX: []float64{0, 1}, SpeedY: []float64{2, 3}, DoFX: []float64{0, 1}, DoFY: []float64{1, 2}, LumaX: []float64{0, 1}, LumaY: []float64{1, 2}},   // F(0)!=1
		{SpeedX: []float64{0, 0}, SpeedY: []float64{1, 2}, DoFX: []float64{0, 1}, DoFY: []float64{1, 2}, LumaX: []float64{0, 1}, LumaY: []float64{1, 2}},   // non-increasing x
		{SpeedX: []float64{0, 1}, SpeedY: []float64{1, 0.5}, DoFX: []float64{0, 1}, DoFY: []float64{1, 2}, LumaX: []float64{0, 1}, LumaY: []float64{1, 2}}, // non-monotone y
		{SpeedX: []float64{0, 1}, SpeedY: []float64{1, 2}, DoFX: []float64{0, 1}, DoFY: []float64{1, 2}, LumaX: []float64{0, 1}, LumaY: []float64{1, 0.9}}, // luma non-monotone
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestLuminanceMaskingShape(t *testing.T) {
	// Dark backgrounds hide more noise than mid-grey; bright more than
	// mid-grey; minimum is ~3 at bg=127.
	dark := LuminanceMasking(0)
	mid := LuminanceMasking(127)
	bright := LuminanceMasking(255)
	if math.Abs(dark-20) > 1e-9 {
		t.Errorf("LM(0) = %v, want 20", dark)
	}
	if math.Abs(mid-3) > 1e-9 {
		t.Errorf("LM(127) = %v, want 3", mid)
	}
	if bright <= mid || bright >= dark {
		t.Errorf("LM(255) = %v, want between %v and %v", bright, mid, dark)
	}
	// Clamps.
	if LuminanceMasking(-5) != dark || LuminanceMasking(300) != bright {
		t.Error("LuminanceMasking should clamp input")
	}
}

func TestTextureMaskingGrows(t *testing.T) {
	if TextureMasking(0) != 0 {
		t.Error("no texture, no masking")
	}
	if TextureMasking(40) <= TextureMasking(10) {
		t.Error("texture masking should grow with gradient")
	}
}

func TestContentJNDBlockIsMax(t *testing.T) {
	// Flat mid-grey: luminance masking dominates.
	if got := ContentJNDBlock(127, 0); math.Abs(got-3) > 1e-9 {
		t.Errorf("flat mid-grey C = %v, want 3", got)
	}
	// Very busy block: texture masking dominates.
	if got := ContentJNDBlock(127, 100); got != TextureMasking(100) {
		t.Errorf("busy C = %v, want texture term", got)
	}
}

func TestContentFieldDimsAndValues(t *testing.T) {
	f := frame.New(32, 16)
	f.Fill(127)
	r := geom.Rect{X0: 4, Y0: 2, X1: 28, Y1: 14}
	field := ContentField(f, r)
	if len(field) != r.Area() {
		t.Fatalf("field len %d, want %d", len(field), r.Area())
	}
	for _, v := range field {
		if math.Abs(v-3) > 1e-9 {
			t.Fatalf("flat mid-grey field value %v, want 3", v)
		}
	}
}

func TestContentFieldTexturedVsFlat(t *testing.T) {
	flat := frame.New(32, 32)
	flat.Fill(127)
	busy := frame.New(32, 32)
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			if (x+y)%2 == 0 {
				busy.Set(x, y, 80)
			} else {
				busy.Set(x, y, 180)
			}
		}
	}
	r := geom.Rect{X1: 32, Y1: 32}
	sum := func(f *frame.Frame) (s float64) {
		for _, v := range ContentField(f, r) {
			s += v
		}
		return s
	}
	if sum(busy) <= sum(flat) {
		t.Error("textured content should have higher JND than flat")
	}
}
