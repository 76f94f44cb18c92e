package telemetry

import (
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
// nothing: its path 404s. All of it is GET/HEAD only.
func Mount(mux *http.ServeMux, reg *obs.Registry, log *obs.EventLog, tracer *trace.Tracer, tel *Sampler) {
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if !obs.AllowGetHead(w, r) {
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if r.Method == http.MethodHead {
			return
		}
		io.WriteString(w, "ok\n")
	})
	if reg != nil {
		mux.Handle("/metrics", reg.Handler())
	}
	if log != nil {
		mux.Handle("/debug/events", log.Handler())
	}
	if tracer != nil {
		mux.Handle("/debug/traces", tracer.Handler())
	}
	if tel != nil {
		mux.Handle("/debug/slo", tel.SLOHandler())
		mux.Handle("/debug/dash", tel.DashHandler())
	}
}
