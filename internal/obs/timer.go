package obs

import "time"

// Timer measures one interval into a latency histogram. It is a value
// type, so starting one allocates nothing, and it is nil-safe through
// Histogram: a Timer over a nil histogram still measures (callers may
// want the duration) but records nowhere.
type Timer struct {
	h     *Histogram
	start time.Time
}

// NewTimer starts a timer that will record seconds into h.
func NewTimer(h *Histogram) Timer {
	return Timer{h: h, start: time.Now()}
}

// ObserveDuration records the elapsed time into the histogram (in
// seconds) and returns it.
func (t Timer) ObserveDuration() time.Duration {
	d := time.Since(t.start)
	t.h.Observe(d.Seconds())
	return d
}
