package telemetry

import (
	"math"
	rtm "runtime/metrics"
	"testing"
)

// TestHistDeltaQuantile reads runtime/metrics' layout — a -Inf first
// edge, a +Inf overflow bucket — through obs.HistogramQuantile.
func TestHistDeltaQuantile(t *testing.T) {
	inf := math.Inf(1)
	edges := []float64{-inf, 0, 1, 2, 4, inf}
	prev := &rtm.Float64Histogram{Buckets: edges, Counts: []uint64{0, 5, 0, 0, 0}}
	cases := []struct {
		q      float64
		counts []uint64
		prev   *rtm.Float64Histogram
		want   float64
	}{
		{0.5, []uint64{0, 0, 0, 0, 0}, nil, 0},                                          // empty
		{0.5, []uint64{0, 0, 4, 0, 0}, nil, 1.5},                                        // middle of [1, 2)
		{0.99, []uint64{0, 0, 0, 0, 3}, nil, 4},                                         // overflow saturates at its lower edge
		{0.5, []uint64{2, 0, 0, 0, 0}, nil, 0},                                          // below zero reads as 0
		{0.5, []uint64{0, 5, 0, 2, 0}, prev, 3},                                         // the delta since prev is [2, 4) only
		{0.5, []uint64{0, 3, 0, 2, 0}, prev, 3},                                         // a count below prev's clamps to 0
		{0.75, []uint64{0, 2, 2, 0, 0}, nil, 1.5},                                       // interpolates across buckets
		{0.25, []uint64{0, 2, 2, 0, 0}, nil, 0.5},                                       // first finite bucket from 0
		{0.5, []uint64{0, 0, 4, 0, 0}, &rtm.Float64Histogram{Counts: []uint64{9}}, 1.5}, // a prev of another shape is ignored
	}
	for i, c := range cases {
		cur := &rtm.Float64Histogram{Buckets: edges, Counts: c.counts}
		if got := histDeltaQuantile(c.q, cur, c.prev); got != c.want {
			t.Errorf("case %d: q%v = %v, want %v", i, c.q, got, c.want)
		}
	}
}
