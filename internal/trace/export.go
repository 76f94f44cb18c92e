package trace

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
)

// Traceparent renders the span as a W3C trace-context traceparent
// header value ("" on nil), always flagged sampled: unsampled work
// never has a span to render.
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	return traceparent(s.trace, s.id)
}

func traceparent(tid TraceID, id SpanID) string {
	return "00-" + tid.String() + "-" + id.String() + "-01"
}

// ParseTraceparent parses a W3C traceparent header value
// ("00-<32 hex>-<16 hex>-<2 hex flags>"). ok is false for malformed or
// all-zero ids; sampled reflects the flags' sampled bit.
func ParseTraceparent(h string) (tid TraceID, parent SpanID, sampled, ok bool) {
	parts := strings.Split(strings.TrimSpace(h), "-")
	if len(parts) != 4 || parts[0] != "00" ||
		len(parts[1]) != 32 || len(parts[2]) != 16 || len(parts[3]) != 2 {
		return TraceID{}, SpanID{}, false, false
	}
	if _, err := hex.Decode(tid[:], []byte(parts[1])); err != nil {
		return TraceID{}, SpanID{}, false, false
	}
	if _, err := hex.Decode(parent[:], []byte(parts[2])); err != nil {
		return TraceID{}, SpanID{}, false, false
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(parts[3])); err != nil {
		return TraceID{}, SpanID{}, false, false
	}
	if tid.IsZero() || parent.IsZero() {
		return TraceID{}, SpanID{}, false, false
	}
	return tid, parent, flags[0]&0x01 != 0, true
}

// Middleware wraps next so requests carrying a sampled traceparent
// header get a server-side span stitched into the caller's trace. The
// span is placed in the request context for downstream annotation (the
// server's instrument hook, the chaos injector); requests without a
// (sampled) traceparent pass through untouched. A nil tracer returns
// next unchanged.
func Middleware(t *Tracer, next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tid, parent, sampled, ok := ParseTraceparent(r.Header.Get("traceparent"))
		if !ok || !sampled {
			next.ServeHTTP(w, r)
			return
		}
		ctx, sp := t.StartRemote(r.Context(), "http_request", tid, parent,
			A("component", "server"), A("method", r.Method), A("path", r.URL.Path))
		// End runs during panic unwinding too, so aborted-connection
		// faults (http.ErrAbortHandler) still record their span.
		defer sp.End()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// chromeEvent is one Chrome trace-event ("X" complete span or "M"
// metadata), the JSON object format Perfetto and chrome://tracing load.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// lane names the thread track a span renders on: the process that
// recorded it when the trace was assembled across processes, else
// "server" for a server-side span and "client" for everything else.
func lane(sd *SpanData) string {
	if p, _ := sd.Attr("process").(string); p != "" {
		return p
	}
	if sd.Attr("component") == "server" {
		return "server"
	}
	return "client"
}

// WriteChromeTrace renders traces in Chrome trace-event JSON (object
// form, ph "X" complete events, microsecond timestamps): one process
// per trace, one thread per lane, span attributes in args. Lanes are
// numbered from 1 in the order they first appear once the spans are
// stably sorted by start time, so an assembled trace shows the request
// hopping client → edge → origin on one timeline. The output loads
// directly in Perfetto (ui.perfetto.dev) and chrome://tracing.
func WriteChromeTrace(w io.Writer, traces ...*TraceData) error {
	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	for pi, td := range traces {
		if td == nil || len(td.Spans) == 0 {
			continue
		}
		pid := pi + 1
		name := td.ID.String()
		if r := td.Root(); r != nil {
			name = r.Name + " " + name
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]any{"name": name},
		})
		tids := map[string]int{}
		spans := append([]SpanData(nil), td.Spans...)
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
		for i := range spans {
			sd := &spans[i]
			ln := lane(sd)
			tid, ok := tids[ln]
			if !ok {
				tid = len(tids) + 1
				tids[ln] = tid
				out.TraceEvents = append(out.TraceEvents, chromeEvent{
					Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
					Args: map[string]any{"name": ln},
				})
			}
			args := map[string]any{
				"trace_id": sd.Trace.String(),
				"span_id":  sd.ID.String(),
			}
			if !sd.Parent.IsZero() {
				args["parent_id"] = sd.Parent.String()
			}
			if sd.Err != "" {
				args["error_class"] = sd.Err
			}
			for _, a := range sd.Attrs {
				args[a.Key] = a.Value
			}
			cat := "span"
			if sd.Err != "" {
				cat = "error"
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: sd.Name, Ph: "X", Cat: cat,
				Ts:  float64(sd.Start.UnixNano()) / 1e3,
				Dur: maxf(float64(sd.Dur.Nanoseconds())/1e3, 0.001),
				Pid: pid, Tid: tid, Args: args,
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// ValidateChromeTrace checks that data parses as Chrome trace-event
// JSON of the shape WriteChromeTrace emits: a traceEvents array whose
// events have a name, a known phase, and non-negative timestamps and
// durations. It returns the number of "X" span events.
func ValidateChromeTrace(data []byte) (int, error) {
	var ct struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Ts   *float64 `json:"ts"`
			Dur  float64  `json:"dur"`
			Pid  *int     `json:"pid"`
			Tid  *int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &ct); err != nil {
		return 0, fmt.Errorf("trace: chrome JSON: %w", err)
	}
	if ct.TraceEvents == nil {
		return 0, fmt.Errorf("trace: chrome JSON: missing traceEvents array")
	}
	spans := 0
	for i, ev := range ct.TraceEvents {
		if ev.Name == "" {
			return 0, fmt.Errorf("trace: event %d: empty name", i)
		}
		if ev.Pid == nil || ev.Tid == nil {
			return 0, fmt.Errorf("trace: event %d (%s): missing pid/tid", i, ev.Name)
		}
		switch ev.Ph {
		case "M":
		case "X":
			if ev.Ts == nil || *ev.Ts < 0 || ev.Dur < 0 {
				return 0, fmt.Errorf("trace: event %d (%s): bad ts/dur", i, ev.Name)
			}
			spans++
		default:
			return 0, fmt.Errorf("trace: event %d (%s): unknown phase %q", i, ev.Name, ev.Ph)
		}
	}
	return spans, nil
}
