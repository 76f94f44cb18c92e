package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFitLinearExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{1, 3, 5, 7, 9} // y = 2x + 1
	l, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l.Slope-2) > 1e-9 || math.Abs(l.Intercept-1) > 1e-9 {
		t.Errorf("fit = %+v, want slope 2 intercept 1", l)
	}
	if math.Abs(l.Eval(10)-21) > 1e-9 {
		t.Errorf("Eval(10) = %v, want 21", l.Eval(10))
	}
}

func TestFitLinearDegenerate(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{1}); err == nil {
		t.Error("single point should error")
	}
	if _, err := FitLinear([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched lengths should error")
	}
	l, err := FitLinear([]float64{3, 3, 3}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if l.Slope != 0 || math.Abs(l.Intercept-2) > 1e-9 {
		t.Errorf("vertical data fit = %+v, want flat mean", l)
	}
}

func TestFitPowerExact(t *testing.T) {
	// y = 3 x^1.7
	xs := []float64{0.5, 1, 2, 4, 8}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * math.Pow(x, 1.7)
	}
	p, err := FitPower(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.A-3) > 1e-6 || math.Abs(p.B-1.7) > 1e-6 {
		t.Errorf("power fit = %+v, want A=3 B=1.7", p)
	}
}

func TestFitPowerSkipsNonPositive(t *testing.T) {
	xs := []float64{-1, 0, 1, 2, 4}
	ys := []float64{5, 5, 2, 4, 8} // last three: y = 2x
	p, err := FitPower(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.A-2) > 1e-6 || math.Abs(p.B-1) > 1e-6 {
		t.Errorf("power fit = %+v, want A=2 B=1", p)
	}
}

func TestPowerEvalEdgeCases(t *testing.T) {
	if got := (Power{A: 2, B: 1.5}).Eval(0); got != 0 {
		t.Errorf("Eval(0) with B>0 = %v, want 0", got)
	}
	if got := (Power{A: 2, B: 0}).Eval(0); got != 2 {
		t.Errorf("Eval(0) with B=0 = %v, want 2", got)
	}
	if got := (Power{A: 2, B: -1}).Eval(0); !math.IsInf(got, 1) {
		t.Errorf("Eval(0) with B<0 = %v, want +Inf", got)
	}
}

func TestStats(t *testing.T) {
	var s Stats
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.n != 8 {
		t.Errorf("n = %d", s.n)
	}
	if math.Abs(s.Mean()-5) > 1e-9 {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	// Sample variance of this classic set is 32/7.
	if math.Abs(s.Var()-32.0/7.0) > 1e-9 {
		t.Errorf("Var = %v, want %v", s.Var(), 32.0/7.0)
	}
	if s.Max() != 9 {
		t.Errorf("Max = %v", s.Max())
	}
}

func TestStatsZeroValue(t *testing.T) {
	var s Stats
	if s.Mean() != 0 || s.Var() != 0 || s.StdErr() != 0 {
		t.Error("zero-value Stats should report zeros")
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5})
	if got := c.At(3); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("At(3) = %v, want 0.6", got)
	}
	if got := c.At(0); got != 0 {
		t.Errorf("At(0) = %v, want 0", got)
	}
	if got := c.At(10); got != 1 {
		t.Errorf("At(10) = %v, want 1", got)
	}
	if got := c.Quantile(0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := c.Quantile(0); got != 1 {
		t.Errorf("q0 = %v, want 1", got)
	}
	if got := c.Quantile(1); got != 5 {
		t.Errorf("q1 = %v, want 5", got)
	}
	if got := c.Mean(); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
}

func TestCDFMonotonicProperty(t *testing.T) {
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) < 2 {
			return true
		}
		c := NewCDF(vals)
		// CDF evaluated at increasing points must be non-decreasing.
		prev := -1.0
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
			x := c.Quantile(q)
			p := c.At(x)
			if p < prev-1e-12 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{5, 1, 3, 2, 4})
	xs, ps := c.Points(5)
	if len(xs) != 5 || len(ps) != 5 {
		t.Fatalf("Points lengths %d/%d", len(xs), len(ps))
	}
	if xs[0] != 1 || xs[4] != 5 {
		t.Errorf("Points endpoints = %v", xs)
	}
	if ps[4] != 1 {
		t.Errorf("last p = %v, want 1", ps[4])
	}
}

func TestInterp(t *testing.T) {
	xs := []float64{0, 10, 20}
	ys := []float64{1, 2, 4}
	cases := []struct{ x, want float64 }{
		{-5, 1}, {0, 1}, {5, 1.5}, {10, 2}, {15, 3}, {20, 4}, {30, 4},
	}
	for _, c := range cases {
		if got := Interp(c.x, xs, ys); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Interp(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed should yield same stream")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds should diverge")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(11)
	var s Stats
	for i := 0; i < 20000; i++ {
		s.Add(r.Norm())
	}
	if math.Abs(s.Mean()) > 0.05 {
		t.Errorf("normal mean = %v, want ~0", s.Mean())
	}
	if math.Abs(s.Std()-1) > 0.05 {
		t.Errorf("normal std = %v, want ~1", s.Std())
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}
