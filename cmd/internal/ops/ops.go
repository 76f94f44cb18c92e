// Package ops is the process assembly the pano binaries share: the
// observability kit, and for the serving binaries the middleware around
// their handler and the graceful serve loop.
package ops

import (
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on http.DefaultServeMux
	"os"
	"time"

	"pano/internal/chaos"
	"pano/internal/graceful"
	"pano/internal/obs"
	"pano/internal/telemetry"
	"pano/internal/trace"
)

// Kit is one process's observability: a registry exporting build info,
// and whichever of event log, tracer and SLO sampler were asked for.
type Kit struct {
	Reg     *obs.Registry
	Log     *obs.EventLog
	Tracer  *trace.Tracer
	Sampler *telemetry.Sampler

	chaos chaos.Profile
	pprof bool
}

// NewKit assembles a kit around evlog (nil = none), the one log that
// requests, chaos injections, span records and SLO transitions share,
// so they land in the same stream and the same /debug/events ring.
// sloSpec "" means no sampler; interval 0 is the sampler's default.
func NewKit(evlog *obs.EventLog, enableTrace bool, sloSpec string, interval time.Duration) (*Kit, error) {
	k := &Kit{Reg: obs.NewRegistry(), Log: evlog}
	obs.ExportBuildInfo(k.Reg)
	if enableTrace {
		k.Tracer = trace.New(trace.Config{Obs: k.Reg, Log: evlog})
	}
	slos, err := telemetry.ParseSLOs(sloSpec)
	if err != nil {
		return nil, err
	}
	if slos != nil {
		evlog.ObserveDrops(k.Reg)
		k.Sampler = telemetry.New(telemetry.Config{Obs: k.Reg, SLOs: slos, Log: evlog, Interval: interval})
	}
	return k, nil
}

// New builds a serving binary's kit from the parsed values of the ops
// flags each declares: -pprof -log-requests -chaos -trace -slo. A bad
// -chaos or -slo spec is its error.
func New(enablePprof, logRequests bool, chaosSpec string, enableTrace bool, sloSpec string) (*Kit, error) {
	prof, err := chaos.Parse(chaosSpec)
	if err != nil {
		return nil, err
	}
	var evlog *obs.EventLog
	if logRequests {
		evlog = obs.NewEventLog(os.Stderr, 0)
	}
	k, err := NewKit(evlog, enableTrace, sloSpec, 0)
	if err != nil {
		return nil, err
	}
	k.chaos, k.pprof = prof, enablePprof
	return k, nil
}

// Serve layers the process middleware around the binary's handler —
// chaos innermost; trace.Middleware outside it, so the injector and
// the handler's own instrumentation both see (and annotate) the active
// span through the request context; the pprof mux outermost — starts
// the sampler, and serves on addr until SIGINT/SIGTERM. It then drains
// in-flight responses (bounded) instead of severing them mid-body; the
// sampler stops after the drain.
func (k *Kit) Serve(addr string, h http.Handler) error {
	if k.chaos.Enabled() {
		h = chaos.New(k.chaos, chaos.WithObs(k.Reg), chaos.WithEventLog(k.Log)).Wrap(h)
		log.Printf("chaos injection enabled: %s", k.chaos)
	}
	if k.Tracer != nil {
		h = trace.Middleware(k.Tracer, h)
		log.Printf("span tracing enabled (traces at /debug/traces)")
	}
	if k.pprof {
		mux := http.NewServeMux()
		mux.Handle("/", h)
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
		h = mux
		log.Printf("pprof mounted at /debug/pprof/")
	}
	if k.Sampler != nil {
		k.Sampler.Start()
		log.Printf("SLO telemetry enabled (%d objectives; /debug/slo, dashboard at /debug/dash)", len(k.Sampler.States()))
	}
	return graceful.Serve(addr, h, graceful.DefaultDrain, k.Sampler)
}
