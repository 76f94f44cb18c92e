package trace

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// ParseChromeTrace parses Chrome trace-event JSON of the dialect
// WriteChromeTrace emits back into TraceData — the inverse of a
// /debug/traces export, and the ingestion half of cross-process trace
// assembly. Only "X" complete events carrying trace_id and span_id
// args become spans (metadata events shape the rendering, not the
// model); remaining args are kept as attributes, sorted by key so
// assembly output is deterministic regardless of JSON map order.
// Traces come back in first-appearance order with spans in event
// order.
func ParseChromeTrace(data []byte) ([]*TraceData, error) {
	var ct struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &ct); err != nil {
		return nil, fmt.Errorf("trace: parse chrome JSON: %w", err)
	}
	byID := map[TraceID]*TraceData{}
	var order []TraceID
	for i, ev := range ct.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		tidHex, ok1 := ev.Args["trace_id"].(string)
		sidHex, ok2 := ev.Args["span_id"].(string)
		if !ok1 || !ok2 {
			continue // not one of our span events
		}
		var tid TraceID
		var sid SpanID
		if !decodeID(tid[:], tidHex) {
			return nil, fmt.Errorf("trace: event %d (%s): bad trace_id %q", i, ev.Name, tidHex)
		}
		if !decodeID(sid[:], sidHex) {
			return nil, fmt.Errorf("trace: event %d (%s): bad span_id %q", i, ev.Name, sidHex)
		}
		sd := SpanData{
			Trace: tid,
			ID:    sid,
			Name:  ev.Name,
			Start: time.Unix(0, int64(ev.Ts*1e3)),
			Dur:   time.Duration(ev.Dur * 1e3),
		}
		if pHex, ok := ev.Args["parent_id"].(string); ok {
			var pid SpanID
			if !decodeID(pid[:], pHex) {
				return nil, fmt.Errorf("trace: event %d (%s): bad parent_id %q", i, ev.Name, pHex)
			}
			sd.Parent = pid
		}
		if ec, ok := ev.Args["error_class"].(string); ok {
			sd.Err = ec
		}
		keys := make([]string, 0, len(ev.Args))
		for k := range ev.Args {
			switch k {
			case "trace_id", "span_id", "parent_id", "error_class":
			default:
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			sd.Attrs = append(sd.Attrs, Attr{Key: k, Value: ev.Args[k]})
		}
		td := byID[tid]
		if td == nil {
			td = &TraceData{ID: tid, Complete: true}
			byID[tid] = td
			order = append(order, tid)
		}
		td.Spans = append(td.Spans, sd)
	}
	out := make([]*TraceData, len(order))
	for i, id := range order {
		out[i] = byID[id]
	}
	return out, nil
}

// decodeID decodes s, exactly 2*len(id) hex digits, into id.
func decodeID(id []byte, s string) bool {
	if len(s) != 2*len(id) {
		return false
	}
	_, err := hex.Decode(id, []byte(s))
	return err == nil
}

// ProcessTraces is one process's contribution to cluster assembly: the
// traces scraped from its /debug/traces endpoint, tagged with the
// instance name they came from.
type ProcessTraces struct {
	Process string
	Traces  []*TraceData
}

// AssembleTraces joins per-process trace fragments on trace ID into
// whole cross-process traces: the client's root span, the edge's fill,
// the fleet fetch attempts, and the origin handler all land in one
// TraceData. Each span is tagged with a "process" attribute naming the
// instance that recorded it; spans seen from several scrapes dedupe by
// span ID (first wins). Traces are returned sorted by ID and spans by
// start time, so assembly of the same fragments is byte-stable;
// WriteChromeTrace gives each process its own lane.
func AssembleTraces(procs []ProcessTraces) []*TraceData {
	byID := map[TraceID]*TraceData{}
	seen := map[TraceID]map[SpanID]bool{}
	for _, p := range procs {
		for _, td := range p.Traces {
			if td == nil {
				continue
			}
			out := byID[td.ID]
			if out == nil {
				out = &TraceData{ID: td.ID, Complete: true}
				byID[td.ID] = out
				seen[td.ID] = map[SpanID]bool{}
			}
			for _, sd := range td.Spans {
				if seen[td.ID][sd.ID] {
					continue
				}
				seen[td.ID][sd.ID] = true
				sd.Attrs = append(append([]Attr(nil), sd.Attrs...), Attr{Key: "process", Value: p.Process})
				out.Spans = append(out.Spans, sd)
			}
		}
	}
	out := make([]*TraceData, 0, len(byID))
	for _, td := range byID {
		sort.SliceStable(td.Spans, func(i, j int) bool { return td.Spans[i].Start.Before(td.Spans[j].Start) })
		out = append(out, td)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID.String() < out[j].ID.String() })
	return out
}

// Processes returns the distinct "process" attribute values across the
// trace's spans, in first-appearance order — how many instances
// contributed to an assembled trace.
func (t *TraceData) Processes() []string {
	var out []string
	seen := map[string]bool{}
	for i := range t.Spans {
		p, _ := t.Spans[i].Attr("process").(string)
		if p != "" && !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}
