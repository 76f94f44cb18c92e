package mathx

import "math"

// Eval evaluates the power law at x. Eval(0) returns 0 when B > 0, A when
// B == 0, and +Inf when B < 0.
func (p Power) Eval(x float64) float64 {
	if x == 0 {
		switch {
		case p.B > 0:
			return 0
		case p.B == 0:
			return p.A
		default:
			return math.Inf(1)
		}
	}
	return p.A * math.Pow(x, p.B)
}

// Points returns up to n evenly spaced (x, P(X<=x)) pairs for plotting.
func (c *CDF) Points(n int) (xs, ps []float64) {
	if len(c.sorted) == 0 || n <= 0 {
		return nil, nil
	}
	if n > len(c.sorted) {
		n = len(c.sorted)
	}
	xs = make([]float64, n)
	ps = make([]float64, n)
	for i := 0; i < n; i++ {
		idx := i * (len(c.sorted) - 1) / max(n-1, 1)
		xs[i] = c.sorted[idx]
		ps[i] = float64(idx+1) / float64(len(c.sorted))
	}
	return xs, ps
}
