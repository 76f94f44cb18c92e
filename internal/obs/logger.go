package obs

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Event is one captured log record, flattened for test assertions.
// Group names are joined into the attribute key with dots. The JSON
// form is what /debug/events serves (a Level marshals as its name).
type Event struct {
	Time  time.Time      `json:"time"`
	Level slog.Level     `json:"level"`
	Msg   string         `json:"msg"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// Attr returns the named attribute (nil when absent).
func (e Event) Attr(key string) any { return e.Attrs[key] }

// Str returns the named attribute rendered as a string ("" when
// absent); convenient for status fields.
func (e Event) Str(key string) string {
	v, ok := e.Attrs[key]
	if !ok {
		return ""
	}
	if s, ok := v.(string); ok {
		return s
	}
	return strings.TrimSpace(slog.AnyValue(v).String())
}

// ring is the event buffer shared by handler clones.
type ring struct {
	mu      sync.Mutex
	events  *Ring[Event]
	dropped uint64
	dropCt  *Counter // optional pano_events_dropped_total mirror
}

func (r *ring) add(e Event) {
	r.mu.Lock()
	if _, overwrote := r.events.Push(e); overwrote {
		// Silent telemetry loss, made observable here.
		r.dropped++
		r.dropCt.Inc()
	}
	r.mu.Unlock()
}

func (r *ring) all() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.events.All()
}

// ringHandler is a slog.Handler capturing records into a ring and
// optionally forwarding them to a second handler (e.g. JSON to stderr).
type ringHandler struct {
	ring   *ring
	attrs  []slog.Attr // accumulated WithAttrs, keys already prefixed
	groups []string
	fwd    slog.Handler
}

func (h *ringHandler) Enabled(context.Context, slog.Level) bool { return true }

func (h *ringHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	c := *h
	c.attrs = append(append([]slog.Attr(nil), h.attrs...), prefixAttrs(h.groups, attrs)...)
	if h.fwd != nil {
		c.fwd = h.fwd.WithAttrs(attrs)
	}
	return &c
}

func (h *ringHandler) WithGroup(name string) slog.Handler {
	c := *h
	c.groups = append(append([]string(nil), h.groups...), name)
	if h.fwd != nil {
		c.fwd = h.fwd.WithGroup(name)
	}
	return &c
}

func (h *ringHandler) Handle(ctx context.Context, rec slog.Record) error {
	e := Event{Time: rec.Time, Level: rec.Level, Msg: rec.Message, Attrs: make(map[string]any)}
	for _, a := range h.attrs {
		e.Attrs[a.Key] = a.Value.Resolve().Any()
	}
	prefix := strings.Join(h.groups, ".")
	rec.Attrs(func(a slog.Attr) bool {
		k := a.Key
		if prefix != "" {
			k = prefix + "." + k
		}
		e.Attrs[k] = a.Value.Resolve().Any()
		return true
	})
	h.ring.add(e)
	if h.fwd != nil {
		return h.fwd.Handle(ctx, rec)
	}
	return nil
}

func prefixAttrs(groups []string, attrs []slog.Attr) []slog.Attr {
	if len(groups) == 0 {
		return attrs
	}
	prefix := strings.Join(groups, ".") + "."
	out := make([]slog.Attr, len(attrs))
	for i, a := range attrs {
		out[i] = slog.Attr{Key: prefix + a.Key, Value: a.Value}
	}
	return out
}

// EventLog is a structured event logger built on log/slog. It keeps the
// most recent events in an in-memory ring buffer for test assertions
// and can mirror records as JSON lines to a writer. A nil *EventLog is
// a valid no-op logger.
type EventLog struct {
	ring   *ring
	logger *slog.Logger
}

// DefaultRingSize is the event capacity used when NewEventLog is given
// a non-positive size.
const DefaultRingSize = 512

// NewEventLog returns an event log retaining the last ringSize events
// (DefaultRingSize if <= 0). When w is non-nil, records are also
// emitted to it in slog's JSON format.
func NewEventLog(w io.Writer, ringSize int) *EventLog {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	r := &ring{events: NewRing[Event](ringSize)}
	var fwd slog.Handler
	if w != nil {
		fwd = slog.NewJSONHandler(w, nil)
	}
	return &EventLog{ring: r, logger: slog.New(&ringHandler{ring: r, fwd: fwd})}
}

var nopLogger = slog.New(slog.DiscardHandler)

// Logger returns the underlying *slog.Logger (a discard logger when l
// is nil), so call sites never need a nil check before logging.
func (l *EventLog) Logger() *slog.Logger {
	if l == nil {
		return nopLogger
	}
	return l.logger
}

// Session returns a logger scoped with session attributes (e.g. video
// ID, chunk count, tile count) attached to every subsequent record.
func (l *EventLog) Session(attrs ...any) *slog.Logger {
	return l.Logger().With(attrs...)
}

// ObserveDrops mirrors ring-buffer overwrites into reg as
// pano_events_dropped_total, so silent event loss is itself a scrapable
// signal. Call once at wiring time; nil receiver or registry is a
// no-op.
func (l *EventLog) ObserveDrops(reg *Registry) {
	if l == nil || reg == nil {
		return
	}
	ct := reg.Counter("pano_events_dropped_total",
		"events the ring buffer overwrote (every push past its capacity)")
	l.ring.mu.Lock()
	l.ring.dropCt = ct
	l.ring.mu.Unlock()
}

// Events returns the buffered events, oldest first.
func (l *EventLog) Events() []Event {
	if l == nil {
		return nil
	}
	return l.ring.all()
}

// Handler serves the ring buffer, oldest first, as a JSON array of
// {time, level, msg, attrs} objects; mount it at /debug/events — a
// zero-dependency peek at recent activity without scraping stderr.
func (l *EventLog) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !AllowGetHead(w, r) {
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if r.Method == http.MethodHead {
			return
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		_ = enc.Encode(append([]Event{}, l.Events()...)) // [] when empty, never null
	})
}

// Find returns every buffered event with the given message.
func (l *EventLog) Find(msg string) []Event {
	var out []Event
	for _, e := range l.Events() {
		if e.Msg == msg {
			out = append(out, e)
		}
	}
	return out
}

// Last returns the most recent event with the given message.
func (l *EventLog) Last(msg string) (Event, bool) {
	evs := l.Find(msg)
	if len(evs) == 0 {
		return Event{}, false
	}
	return evs[len(evs)-1], true
}
