// Package mathx provides the small numeric toolkit shared by the Pano
// packages: least-squares regression (linear and power-law), running
// statistics, empirical CDFs, and a deterministic PRNG suitable for
// reproducible experiments.
package mathx

import (
	"errors"
	"math"
	"sort"
)

// ErrInsufficientData is returned by fitters given fewer points than
// unknowns.
var ErrInsufficientData = errors.New("mathx: insufficient data points")

// Linear is a fitted line y = Slope*x + Intercept.
type Linear struct {
	Slope     float64
	Intercept float64
}

// Eval evaluates the line at x.
func (l Linear) Eval(x float64) float64 { return l.Slope*x + l.Intercept }

// FitLinear fits y = a*x + b by ordinary least squares.
func FitLinear(xs, ys []float64) (Linear, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return Linear{}, ErrInsufficientData
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		// All x identical: fall back to a flat line through the mean.
		return Linear{Slope: 0, Intercept: sy / n}, nil
	}
	a := (n*sxy - sx*sy) / den
	b := (sy - a*sx) / n
	return Linear{Slope: a, Intercept: b}, nil
}

// Power is a fitted power law y = A * x^B.
type Power struct {
	A float64
	B float64
}

// FitPower fits y = A*x^B by least squares in log-log space. All xs and ys
// must be strictly positive; non-positive points are skipped. It returns
// ErrInsufficientData if fewer than two usable points remain.
func FitPower(xs, ys []float64) (Power, error) {
	if len(xs) != len(ys) {
		return Power{}, ErrInsufficientData
	}
	lx := make([]float64, 0, len(xs))
	ly := make([]float64, 0, len(ys))
	for i := range xs {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	lin, err := FitLinear(lx, ly)
	if err != nil {
		return Power{}, err
	}
	return Power{A: math.Exp(lin.Intercept), B: lin.Slope}, nil
}

// Stats accumulates running moments without storing samples.
// The zero value is ready to use.
type Stats struct {
	n             int
	mean, m2, max float64
}

// Add records one observation.
func (s *Stats) Add(x float64) {
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
	if s.n == 1 || x > s.max {
		s.max = x
	}
}

// Mean returns the sample mean, or 0 with no observations.
func (s *Stats) Mean() float64 { return s.mean }

// Var returns the sample variance (n-1 denominator), or 0 for n < 2.
func (s *Stats) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Stats) Std() float64 { return math.Sqrt(s.Var()) }

// StdErr returns the standard error of the mean.
func (s *Stats) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.Std() / math.Sqrt(float64(s.n))
}

// Max returns the maximum observation, or 0 with no observations.
func (s *Stats) Max() float64 { return s.max }

// CDF is an empirical cumulative distribution over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from samples (copied, then sorted).
func NewCDF(samples []float64) *CDF {
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// At returns P(X <= x) in [0, 1].
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-quantile for q in [0, 1] using nearest-rank.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	i := int(math.Ceil(q*float64(len(c.sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return c.sorted[i]
}

// Mean returns the sample mean of the CDF's underlying data.
func (c *CDF) Mean() float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	var s float64
	for _, v := range c.sorted {
		s += v
	}
	return s / float64(len(c.sorted))
}

// Interp performs piecewise-linear interpolation of y(x) over anchor
// points (xs ascending). Outside the range it clamps to the end values.
func Interp(x float64, xs, ys []float64) float64 {
	if len(xs) == 0 || len(xs) != len(ys) {
		return 0
	}
	if x <= xs[0] {
		return ys[0]
	}
	n := len(xs)
	if x >= xs[n-1] {
		return ys[n-1]
	}
	i := sort.SearchFloat64s(xs, x)
	// xs[i-1] < x <= xs[i]
	t := (x - xs[i-1]) / (xs[i] - xs[i-1])
	return ys[i-1] + t*(ys[i]-ys[i-1])
}

// RoundSignificand rounds x to the nearest float whose significand has
// bits bits (the leading one included), ties to even, with no limit on
// the exponent: 53 leaves a float64 as it is, and 24 is binary32's
// precision, so RoundSignificand(x, 24) == float64(float32(x)) wherever x
// is in binary32's normal range. 0, NaN and infinities are returned as
// they are.
func RoundSignificand(x float64, bits int) float64 {
	if x == 0 || math.IsNaN(x) || math.IsInf(x, 0) {
		return x
	}
	frac, exp := math.Frexp(x) // |frac| in [0.5, 1)
	return math.Ldexp(math.RoundToEven(math.Ldexp(frac, bits)), exp-bits)
}
