package fleet

import (
	"slices"
	"testing"
	"time"

	"pano/internal/mathx"
)

// sortedP95 is the tracker's p95 the way it used to be computed: copy
// the reservoir (the last 128 observations) and sort it.
func sortedP95(seen []time.Duration) time.Duration {
	window := slices.Clone(seen[max(0, len(seen)-128):])
	if len(window) == 0 {
		return 0
	}
	slices.Sort(window)
	return window[len(window)*95/100]
}

// The incrementally sorted reservoir reads the same p95 as sorting the
// last 128 observations does, after every observation of random
// sequences — short and long, with many equal samples (a narrow range),
// with few, and with monotone runs — so the hedge timer cannot move.
func TestLatTrackerP95MatchesSort(t *testing.T) {
	rng := mathx.NewRNG(95)
	for seq := 0; seq < 60; seq++ {
		l := newLatTracker()
		var seen []time.Duration
		if got := l.p95(); got != 0 {
			t.Fatalf("empty tracker p95 = %v, want 0", got)
		}
		span := []int{1, 7, 1000, 1 << 30}[seq%4]
		for i, n := 0, 1+rng.Intn(700); i < n; i++ {
			d := time.Duration(rng.Intn(span))
			switch seq % 6 {
			case 4:
				d = time.Duration(i) // ascending: always inserted last
			case 5:
				d = time.Duration(n - i) // descending: always inserted first
			}
			l.observe(d)
			seen = append(seen, d)
			// Reads are interleaved at random so that they do not only
			// ever follow a write.
			for r := rng.Intn(3); r > 0; r-- {
				if got, want := l.p95(), sortedP95(seen); got != want {
					t.Fatalf("sequence %d after %d observations: p95 %v, sorted reservoir gives %v", seq, len(seen), got, want)
				}
			}
		}
		if !slices.IsSorted(l.sorted[:l.n]) {
			t.Fatalf("sequence %d: reservoir not sorted", seq)
		}
	}
}

func TestLatTrackerDoesNotAllocate(t *testing.T) {
	l := newLatTracker()
	d := time.Duration(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		d += 37
		l.observe(d % 1009)
		l.p95()
	}); allocs != 0 {
		t.Errorf("%v allocs per observe+p95, want 0", allocs)
	}
}
