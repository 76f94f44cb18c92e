// Package trace is the repo's zero-dependency span tracer: a bounded
// in-memory store of session→chunk→tile→attempt span trees with
// context.Context propagation, W3C traceparent stitching across the
// HTTP hop, deterministic ids, and three export paths (JSONL via
// the obs event log, Chrome trace-event JSON loadable in Perfetto or
// chrome://tracing, and exemplar trace IDs on obs histograms).
//
// Like the rest of the observability layer, a nil *Tracer is a valid
// no-op: Start on a nil tracer returns the context unchanged and a nil
// *Span, and every method on a nil *Span is safe and does nothing, so
// the instrumented hot paths pay only a nil check (and zero
// allocations) when tracing is disabled.
//
// Roots are opened with Tracer.Start; library code deeper in the stack
// opens children with the package-level StartSpan, which finds the
// parent span (and through it the tracer) in the context — so only the
// session entry points (client.Stream, sim.Run, the server middleware)
// ever hold a *Tracer.
package trace

import (
	"context"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"

	"pano/internal/obs"
)

// TraceID is a W3C trace-context trace id (16 bytes, hex-rendered).
type TraceID [16]byte

// IsZero reports whether the id is the invalid all-zero id.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the id as 32 lowercase hex characters.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// SpanID is a W3C trace-context span id (8 bytes, hex-rendered).
type SpanID [8]byte

// IsZero reports whether the id is the invalid all-zero id.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the id as 16 lowercase hex characters.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value any
}

// A is shorthand for constructing an Attr.
func A(key string, value any) Attr { return Attr{Key: key, Value: value} }

// maxSpansPerTrace bounds one trace's span count; spans beyond the cap
// are counted as dropped, not stored.
const maxSpansPerTrace = 4096

// Config tunes a Tracer. Every root span is traced.
type Config struct {
	// MaxTraces bounds how many traces the in-memory store retains
	// (default 64); the oldest finished trace is evicted first.
	MaxTraces int
	// Seed drives span/trace id generation (ids are unique per tracer
	// for any seed; a fixed seed makes them reproducible for tests).
	Seed uint64
	// Log, when set, receives one "span" event per finished span and a
	// "trace_complete" event per finished trace — the JSONL export path
	// (obs.EventLog mirrors records as JSON lines). nil disables it.
	Log *obs.EventLog
	// Obs, when set, receives tracer self-metrics:
	// pano_trace_spans_total, pano_trace_traces_total, and
	// pano_trace_dropped_spans_total. nil disables them.
	Obs *obs.Registry
}

// Tracer creates spans and retains finished traces in a bounded store.
// All methods are safe for concurrent use; a nil *Tracer is a no-op.
type Tracer struct {
	seed  uint64
	ctr   atomic.Uint64
	store *store
	log   *obs.EventLog

	spansTotal   *obs.Counter
	tracesTotal  *obs.Counter
	droppedTotal *obs.Counter
}

// New returns a tracer with the given configuration.
func New(cfg Config) *Tracer {
	if cfg.MaxTraces <= 0 {
		cfg.MaxTraces = 64
	}
	t := &Tracer{
		seed:  cfg.Seed,
		store: newStore(cfg.MaxTraces, maxSpansPerTrace),
		log:   cfg.Log,
	}
	if cfg.Obs != nil {
		t.spansTotal = cfg.Obs.Counter("pano_trace_spans_total", "spans finished by the tracer")
		t.tracesTotal = cfg.Obs.Counter("pano_trace_traces_total", "traces completed (root span ended)")
		t.droppedTotal = cfg.Obs.Counter("pano_trace_dropped_spans_total",
			"spans dropped by the bounded store (per-trace or store capacity)")
	}
	return t
}

// splitmix64 is the id-generation mix (SplitMix64 finalizer).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (56 - 8*i))
	}
}

func (t *Tracer) newTraceID() TraceID {
	c := t.ctr.Add(1)
	var id TraceID
	putU64(id[:8], splitmix64(t.seed^c))
	putU64(id[8:], splitmix64(t.seed^c^0xa5a5a5a5a5a5a5a5))
	if id.IsZero() {
		id[15] = 1
	}
	return id
}

func (t *Tracer) newSpanID() SpanID {
	c := t.ctr.Add(1)
	var id SpanID
	putU64(id[:], splitmix64(t.seed^c^0x5bd1e9955bd1e995))
	if id.IsZero() {
		id[7] = 1
	}
	return id
}

// ctxKey carries the active span through a context.
type ctxKey struct{}

// FromContext returns the active span (nil when none).
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// ContextWith returns ctx with s as the active span.
func ContextWith(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// Start opens a span. With no active span in ctx it opens a new root;
// otherwise it opens a child of the active span. On a nil tracer it
// returns ctx unchanged and a nil span. The caller must End the span.
func (t *Tracer) Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if parent := FromContext(ctx); parent != nil {
		return t.start(ctx, parent.trace, t.newSpanID(), parent.id, false, name, attrs)
	}
	return t.start(ctx, t.newTraceID(), t.newSpanID(), SpanID{}, true, name, attrs)
}

// StartRemote opens a span joining a trace begun elsewhere (the server
// side of a W3C traceparent hop). The caller must End the span. Since
// the remote root will never End in THIS tracer's store, ending a
// remote-joined span marks its trace locally complete — so a
// standalone server's /debug/traces serves the handler spans it
// recorded for traces rooted in another process. Later spans of the
// same trace still append.
func (t *Tracer) StartRemote(ctx context.Context, name string, tid TraceID, parent SpanID, attrs ...Attr) (context.Context, *Span) {
	if t == nil || tid.IsZero() {
		return ctx, nil
	}
	sctx, s := t.start(ctx, tid, t.newSpanID(), parent, false, name, attrs)
	s.remote = true
	return sctx, s
}

func (t *Tracer) start(ctx context.Context, tid TraceID, id, parent SpanID, root bool, name string, attrs []Attr) (context.Context, *Span) {
	s := &Span{
		tracer: t,
		trace:  tid,
		id:     id,
		parent: parent,
		root:   root,
		name:   name,
		start:  time.Now(),
		attrs:  append([]Attr(nil), attrs...),
	}
	return ContextWith(ctx, s), s
}

// StartSpan opens a child of the context's active span, routing through
// that span's tracer; with no active span it is a no-op. This is the
// entry point for library code that never holds a *Tracer itself.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	return parent.tracer.Start(ctx, name, attrs...)
}

// Span is one timed operation in a trace. All methods are nil-safe.
type Span struct {
	tracer *Tracer
	trace  TraceID
	id     SpanID
	parent SpanID
	root   bool
	remote bool // joined via StartRemote: End marks the trace locally complete
	name   string
	start  time.Time

	mu       sync.Mutex
	attrs    []Attr
	errClass string
	ended    bool
}

// TraceHex returns the hex trace id, or "" on nil — the form histogram
// exemplars and log fields want.
func (s *Span) TraceHex() string {
	if s == nil {
		return ""
	}
	return s.trace.String()
}

// Annotate attaches attrs to the span, in order.
func (s *Span) Annotate(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.mu.Unlock()
}

// SetError marks the span failed with a short error class (e.g.
// "timeout", "http_5xx", "conn_reset", "truncated").
func (s *Span) SetError(class string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.errClass = class
	s.mu.Unlock()
}

// End finishes the span and hands it to the tracer's store. Ending a
// span twice records it once; ending a root completes its trace.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	sd := SpanData{
		Trace:  s.trace,
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		Start:  s.start,
		Dur:    end.Sub(s.start),
		Attrs:  append([]Attr(nil), s.attrs...),
		Err:    s.errClass,
	}
	s.mu.Unlock()
	s.tracer.finish(sd, s.root, s.remote)
}

// finish stores the span. root marks a locally-rooted trace done (and
// counts it); remote-joined spans also complete their trace in the
// store — without the root accounting, since many handler spans share
// one remote trace.
func (t *Tracer) finish(sd SpanData, root, remote bool) {
	stored := t.store.add(sd, root || remote)
	if stored {
		t.spansTotal.Inc()
	} else {
		t.droppedTotal.Inc()
	}
	if t.log != nil {
		args := []any{
			"trace_id", sd.Trace.String(), "span_id", sd.ID.String(),
			"name", sd.Name, "dur_sec", sd.Dur.Seconds(),
		}
		if !sd.Parent.IsZero() {
			args = append(args, "parent_id", sd.Parent.String())
		}
		if sd.Err != "" {
			args = append(args, "error_class", sd.Err)
		}
		for _, a := range sd.Attrs {
			args = append(args, "attr."+a.Key, a.Value)
		}
		t.log.Logger().Debug("span", args...)
	}
	if root {
		t.tracesTotal.Inc()
		if t.log != nil {
			td := t.store.get(sd.Trace)
			spans := 0
			if td != nil {
				spans = len(td.Spans)
			}
			t.log.Logger().Info("trace_complete",
				"trace_id", sd.Trace.String(), "root", sd.Name,
				"spans", spans, "dur_sec", sd.Dur.Seconds())
		}
	}
}

// Traces returns the finished traces, oldest first.
func (t *Tracer) Traces() []*TraceData {
	if t == nil {
		return nil
	}
	return t.store.finished()
}

// Trace returns one trace by id (finished or still active), or nil.
func (t *Tracer) Trace(id TraceID) *TraceData {
	if t == nil {
		return nil
	}
	return t.store.get(id)
}
