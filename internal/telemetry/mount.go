package telemetry

import (
	"encoding/hex"
	"io"
	"net/http"

	"pano/internal/obs"
	"pano/internal/trace"
)

// Mount registers the ops surface every pano process shares — origin,
// edge, pano-player's -telemetry-addr endpoint, the testbed's client
// process — so a path answers with the same bytes whichever process
// serves it: /healthz (the fleet's probes target it) always, and
// /metrics, /debug/events, /debug/traces, /debug/slo + /debug/dash for
// whichever of reg, log, tracer, tel is non-nil. A nil part mounts
// nothing: its path 404s. All of it is GET/HEAD only. NewPlane mounts
// the same /metrics and /debug/traces handlers over the federated view.
func Mount(mux *http.ServeMux, reg *obs.Registry, log *obs.EventLog, tracer *trace.Tracer, tel *Sampler) {
	mux.Handle("/healthz", get("text/plain; charset=utf-8", func(w io.Writer) { io.WriteString(w, "ok\n") }))
	if reg != nil {
		mux.Handle("/metrics", metricsHandler(reg.Snapshot))
	}
	if log != nil {
		mux.Handle("/debug/events", log.Handler())
	}
	if tracer != nil {
		mux.Handle("/debug/traces", tracesHandler(tracer.Trace, tracer.Traces))
	}
	if tel != nil {
		mux.Handle("/debug/slo", tel.SLOHandler())
		mux.Handle("/debug/dash", tel.DashHandler())
	}
}

// get answers GET and HEAD with contentType, writing body on GET only.
func get(contentType string, body func(w io.Writer)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !obs.AllowGetHead(w, r) {
			return
		}
		w.Header().Set("Content-Type", contentType)
		if r.Method == http.MethodGet {
			body(w)
		}
	})
}

// metricsHandler is /metrics: series in Prometheus text exposition.
func metricsHandler(series func() []obs.SnapshotSeries) http.Handler {
	return get("text/plain; version=0.0.4; charset=utf-8", func(w io.Writer) {
		_ = obs.WritePrometheusSeries(w, series())
	})
}

// tracesHandler is /debug/traces: every trace all returns as Chrome
// trace-event JSON, or with ?trace=<32-hex id> the one find returns —
// 400 for a malformed id, 404 when there is none.
func tracesHandler(find func(trace.TraceID) *trace.TraceData, all func() []*trace.TraceData) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !obs.AllowGetHead(w, r) {
			return
		}
		var traces []*trace.TraceData
		if q := r.URL.Query().Get("trace"); q != "" {
			var id trace.TraceID
			b, err := hex.DecodeString(q)
			if err != nil || len(b) != len(id) {
				http.Error(w, "bad trace id", http.StatusBadRequest)
				return
			}
			copy(id[:], b)
			td := find(id)
			if td == nil {
				http.NotFound(w, r)
				return
			}
			traces = []*trace.TraceData{td}
		}
		w.Header().Set("Content-Type", "application/json")
		if r.Method == http.MethodHead {
			return // before all(): a HEAD pulls nothing from obsd's targets
		}
		if traces == nil {
			traces = all()
		}
		_ = trace.WriteChromeTrace(w, traces...)
	})
}
