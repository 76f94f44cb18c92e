package telemetry

import (
	"testing"
	"time"
)

// TestWindowStartMatchesScan holds the binary search to the linear scan
// it replaced — the newest sample at or before t, else the oldest — over
// ascending timestamps with repeats, for t before, on, between and after
// every sample.
func TestWindowStartMatchesScan(t *testing.T) {
	base := time.Unix(1700000000, 0)
	secs := []int{0, 1, 1, 1, 3, 4, 4, 7, 9, 9}
	at := func(i int) time.Time { return base.Add(time.Duration(secs[i]) * time.Second) }
	for n := 0; n <= len(secs); n++ {
		for q := -1; q <= 10; q++ {
			tq := base.Add(time.Duration(q) * time.Second)
			want := 0
			for want+1 < n && !at(want+1).After(tq) {
				want++
			}
			if got := windowStart(n, tq, at); got != want {
				t.Errorf("n=%d, t=%+ds: windowStart %d, the scan %d", n, q, got, want)
			}
		}
	}
}
