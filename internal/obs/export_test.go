package obs

// LinearBuckets returns n bounds starting at start, spaced by width.
func LinearBuckets(start, width float64, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = start + float64(i)*width
	}
	return b
}

// Dropped reports how many events the ring buffer has overwritten —
// every push past its capacity counts, read or not; nonzero means the
// retained window is shorter than what the process logged. Nil-safe.
func (l *EventLog) Dropped() uint64 {
	if l == nil {
		return 0
	}
	l.ring.mu.Lock()
	defer l.ring.mu.Unlock()
	return l.ring.dropped
}
