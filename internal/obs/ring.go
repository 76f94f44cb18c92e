package obs

// Ring is a fixed-capacity FIFO that overwrites its oldest value once
// full — the one bounded buffer of the observability plane: the event
// log, the telemetry series and the trace store's eviction order. It is
// not safe for concurrent use; its owner holds the lock.
type Ring[T any] struct {
	buf  []T
	next int
	full bool
}

// NewRing returns an empty ring holding at most n values (n >= 1).
func NewRing[T any](n int) *Ring[T] { return &Ring[T]{buf: make([]T, n)} }

// Push appends v. Once the ring is full it overwrites the oldest value
// and hands that value back with ok true, so the owner can account for
// it (the event log counts a drop, the trace store deletes the trace).
func (r *Ring[T]) Push(v T) (old T, ok bool) {
	old, ok = r.buf[r.next], r.full
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	if r.next == 0 {
		r.full = true
	}
	return old, ok
}

// All returns a copy of the retained values, oldest first.
func (r *Ring[T]) All() []T {
	if !r.full {
		return append([]T(nil), r.buf[:r.next]...)
	}
	return append(append(make([]T, 0, len(r.buf)), r.buf[r.next:]...), r.buf[:r.next]...)
}

// Len returns how many values the ring retains.
func (r *Ring[T]) Len() int {
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// At returns the i-th oldest retained value, 0 <= i < Len(): a read in
// place, where All copies.
func (r *Ring[T]) At(i int) T {
	if r.full {
		i = (r.next + i) % len(r.buf)
	}
	return r.buf[i]
}

// Oldest returns the oldest retained value (false when empty).
func (r *Ring[T]) Oldest() (T, bool) { return r.At(0), r.Len() > 0 }

// Newest returns the most recently pushed value (false when empty).
func (r *Ring[T]) Newest() (T, bool) { return r.buf[(r.next+len(r.buf)-1)%len(r.buf)], r.Len() > 0 }
