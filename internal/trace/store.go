package trace

import (
	"sync"
	"time"

	"pano/internal/obs"
)

// SpanData is one finished span as retained by the store.
type SpanData struct {
	Trace  TraceID
	ID     SpanID
	Parent SpanID
	Name   string
	Start  time.Time
	Dur    time.Duration
	Attrs  []Attr
	// Err is the short error class set via SetError ("" on success).
	Err string
}

// Attr returns the named attribute's value (nil when absent; the last
// annotation wins when a key repeats).
func (s *SpanData) Attr(key string) any {
	var v any
	for _, a := range s.Attrs {
		if a.Key == key {
			v = a.Value
		}
	}
	return v
}

// TraceData is every stored span of one trace, in end order.
type TraceData struct {
	ID    TraceID
	Spans []SpanData
	// Complete is set once the root span has ended.
	Complete bool
}

// Root returns the trace's root span (nil when the root was dropped or
// has not ended).
func (t *TraceData) Root() *SpanData {
	for i := range t.Spans {
		if t.Spans[i].Parent.IsZero() {
			return &t.Spans[i]
		}
	}
	return nil
}

// Find returns every span with the given name, in end order.
func (t *TraceData) Find(name string) []*SpanData {
	var out []*SpanData
	for i := range t.Spans {
		if t.Spans[i].Name == name {
			out = append(out, &t.Spans[i])
		}
	}
	return out
}

// store is the bounded trace retention: at most maxTraces traces of at
// most maxSpans spans each. Completed traces are evicted oldest-first;
// spans over a cap are dropped and counted.
type store struct {
	mu        sync.Mutex
	maxTraces int
	maxSpans  int
	traces    map[TraceID]*TraceData
	order     *obs.Ring[TraceID] // completion order, oldest first
	droppedN  uint64
}

func newStore(maxTraces, maxSpans int) *store {
	return &store{
		maxTraces: maxTraces,
		maxSpans:  maxSpans,
		traces:    make(map[TraceID]*TraceData),
		order:     obs.NewRing[TraceID](maxTraces),
	}
}

// add stores one finished span, reporting whether it was retained.
// root marks the span completing its trace.
func (st *store) add(sd SpanData, root bool) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	td := st.traces[sd.Trace]
	if td == nil {
		// Bound active traces too: a runaway span source cannot grow the
		// map past twice the retention target.
		if len(st.traces) >= 2*st.maxTraces {
			st.droppedN++
			return false
		}
		td = &TraceData{ID: sd.Trace}
		st.traces[sd.Trace] = td
	}
	stored := true
	if len(td.Spans) >= st.maxSpans {
		st.droppedN++
		stored = false
	} else {
		td.Spans = append(td.Spans, sd)
	}
	if root && !td.Complete {
		td.Complete = true
		if evict, ok := st.order.Push(sd.Trace); ok {
			delete(st.traces, evict)
		}
	}
	return stored
}

// finished returns the completed traces, oldest first (copies of the
// span slices, safe to hold).
func (st *store) finished() []*TraceData {
	st.mu.Lock()
	defer st.mu.Unlock()
	ids := st.order.All()
	out := make([]*TraceData, 0, len(ids))
	for _, id := range ids {
		if td := st.traces[id]; td != nil {
			out = append(out, td.clone())
		}
	}
	return out
}

func (st *store) get(id TraceID) *TraceData {
	st.mu.Lock()
	defer st.mu.Unlock()
	td := st.traces[id]
	if td == nil {
		return nil
	}
	return td.clone()
}

func (t *TraceData) clone() *TraceData {
	return &TraceData{ID: t.ID, Spans: append([]SpanData(nil), t.Spans...), Complete: t.Complete}
}
