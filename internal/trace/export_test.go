package trace

// TraceID returns the span's trace id (zero on nil).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.trace
}

// SpanID returns the span's id (zero on nil).
func (s *Span) SpanID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// DroppedSpans returns how many spans the bounded store rejected.
func (t *Tracer) DroppedSpans() uint64 {
	if t == nil {
		return 0
	}
	t.store.mu.Lock()
	defer t.store.mu.Unlock()
	return t.store.droppedN
}
