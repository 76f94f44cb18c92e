// Package pano is a Go implementation of Pano (Guan et al., SIGCOMM
// 2019): a 360° video streaming system that models how users actually
// perceive 360° video quality — accounting for viewpoint-moving speed,
// luminance changes, and depth-of-field differences — and uses that
// model to save bandwidth or raise perceived quality.
//
// The library is organized as a pipeline:
//
//	video → Preprocess (tiling + PSPNR lookup table) → manifest
//	manifest → Serve (DASH-style HTTP) → Stream (adaptive client)
//	manifest + traces → Simulate (trace-driven evaluation)
//
// Stream and Simulate are one adaptation loop: Simulate runs it over an
// emulated link in virtual time and scores what it delivers against
// the viewer's real head trajectory.
//
// An optional edge cache tier (NewEdge, cmd/pano-edge) slots between
// Serve and Stream: the same HTTP interface, with tile fetches
// coalesced, cached, and prefetched close to the clients.
//
// The package root re-exports the stable surface of the internal
// packages; see the examples directory for end-to-end programs, and
// cmd/pano-bench for the paper's full evaluation suite.
package pano

import (
	"context"
	"io"
	"net/http"

	"pano/internal/chaos"
	"pano/internal/edge"
	"pano/internal/fleet"
	"pano/internal/jnd"
	"pano/internal/manifest"
	"pano/internal/nettrace"
	"pano/internal/obs"
	"pano/internal/parallel"
	"pano/internal/player"
	"pano/internal/provider"
	"pano/internal/scene"
	"pano/internal/server"
	"pano/internal/sim"
	"pano/internal/swarm"
	"pano/internal/telemetry"
	"pano/internal/trace"
	"pano/internal/viewport"

	panoclient "pano/internal/client"
)

// Core data types.
type (
	// Video is a synthetic 360° video with analytic ground truth
	// (objects, luminance, depth) standing in for real footage.
	Video = scene.Video
	// Genre labels video content categories (Table 2).
	Genre = scene.Genre
	// VideoOptions sizes generated videos.
	VideoOptions = scene.Options
	// Manifest is the DASH-style manifest with the PSPNR lookup table.
	Manifest = manifest.Video
	// ViewTrace is a viewpoint trajectory.
	ViewTrace = viewport.Trace
	// NetTrace is a bandwidth trace.
	NetTrace = nettrace.Trace
	// Link is an emulated download link over a NetTrace.
	Link = nettrace.Link
	// JNDProfile holds the 360JND multiplier curves of §4.
	JNDProfile = jnd.Profile
	// JNDFactors are the three viewpoint-driven quantities.
	JNDFactors = jnd.Factors
	// Planner decides per-tile quality levels (Pano or a baseline).
	Planner = player.Planner
	// SessionResult summarizes a simulated playback session.
	SessionResult = sim.Result
	// SimConfig tunes a simulated session.
	SimConfig = sim.Config
	// PreprocessConfig tunes offline preprocessing.
	PreprocessConfig = provider.Config
	// Server serves an encoded video over HTTP.
	Server = server.Server
	// Client streams from a Server.
	Client = panoclient.Client
	// StreamConfig tunes an HTTP streaming session.
	StreamConfig = panoclient.StreamConfig
	// StreamResult summarizes an HTTP streaming session.
	StreamResult = panoclient.StreamResult
	// FetchPolicy tunes the client's resilient tile pipeline: per-attempt
	// deadlines from buffer occupancy, capped jittered backoff, and the
	// degrade-to-lowest-then-skip ladder. Set via StreamConfig.Fetch; the
	// zero value selects DefaultFetchPolicy.
	FetchPolicy = panoclient.FetchPolicy
	// ChaosProfile configures the deterministic fault-injection
	// middleware (per-endpoint error/abort/truncate/stall rates, latency,
	// throttling, flaky windows).
	ChaosProfile = chaos.Profile
	// ChaosRule is the fault mix for one endpoint class.
	ChaosRule = chaos.Rule
	// ChaosWindow is the request-sequence flaky schedule.
	ChaosWindow = chaos.Window
	// ChaosInjector wraps an http.Handler with a ChaosProfile's faults.
	ChaosInjector = chaos.Injector
	// Metrics is the zero-dependency observability registry; pass it
	// via SimConfig.Obs, StreamConfig.Obs, or NewServerWith to collect
	// QoE metrics and scrape them in Prometheus format. nil disables.
	Metrics = obs.Registry
	// EventLog is the structured session event logger (log/slog based,
	// with an in-memory ring buffer for assertions).
	EventLog = obs.EventLog
	// JNDFieldCache is the size-bounded concurrent cache of per-chunk
	// content-JND fields; pass it via SimConfig.FieldCache so repeated
	// PSPNR scoring stops recomputing C(i,j). Hit/miss/eviction
	// counters register in the obs registry it was built with.
	JNDFieldCache = jnd.FieldCache
	// Tracer records streaming sessions as span trees (session → chunk →
	// estimate/mpc/assign/fetch/stitch, plus per-tile fetch attempts and
	// server-side handler spans stitched over the W3C traceparent
	// header). Pass it via SimConfig.Trace, StreamConfig.Trace, or
	// server.WithTracer; nil disables tracing at zero cost.
	Tracer = trace.Tracer
	// TracerConfig tunes a Tracer (sampling, store bounds, obs/event-log
	// sinks).
	TracerConfig = trace.Config
	// TraceData is one finished trace (all spans, cloned out of the
	// store).
	TraceData = trace.TraceData
	// Edge is the caching reverse proxy between clients and an origin
	// Server: byte-budgeted LRU cache with TTLs and negative caching,
	// singleflight request coalescing, ETag revalidation (304 fast
	// path), serve-stale on origin faults, and prediction-driven
	// next-chunk tile prefetch (cross-user consensus when peer traces
	// are configured).
	Edge = edge.Edge
	// EdgeConfig tunes an Edge (origin URLs, cache budget, TTLs, origin
	// FetchPolicy, prefetch budget and peer traces, observability).
	EdgeConfig = edge.Config
	// TelemetrySampler periodically scrapes a Metrics registry into
	// windowed ring-buffer series, samples Go runtime health, and
	// evaluates SLO burn rates (ok/warn/page with flap damping); serve
	// its SLOHandler/DashHandler or pass it to server.WithTelemetry /
	// EdgeConfig.Telemetry for /debug/slo and /debug/dash. A nil sampler
	// is a valid no-op.
	TelemetrySampler = telemetry.Sampler
	// TelemetryConfig tunes a TelemetrySampler (registry, scrape
	// interval, retained window, SLO set, event/trace sinks).
	TelemetryConfig = telemetry.Config
	// SLO is one declarative objective (rate, floor, ceiling, or
	// quantile) with burn windows and alert thresholds.
	SLO = telemetry.SLO
	// SLOStatus is one SLO's current evaluation, as served by /debug/slo.
	SLOStatus = telemetry.SLOStatus
	// Clock abstracts how the streaming client observes and spends
	// time; the default RealClock is the wall clock, and
	// internal/swarm's virtual clock drives the same session loop in
	// discrete-event time.
	Clock = panoclient.Clock
	// Transport abstracts how the streaming client moves bytes: the
	// HTTP Client is one implementation, the swarm's logical network
	// emulator is another.
	Transport = panoclient.Transport
	// SwarmConfig describes a virtual-time population run: one
	// manifest, pools of viewport and bandwidth traces, a fault
	// profile, and a session count (100k–1M sessions in one process).
	SwarmConfig = swarm.Config
	// SwarmReport is a swarm run's outcome: the deterministic
	// population Summary (byte-identical for a given config at any
	// worker count) plus wall-clock throughput figures.
	SwarmReport = swarm.Report
	// SwarmSummary is the deterministic population rollup (QoE
	// quantiles, rebuffer ratio, concurrency curve, origin load).
	SwarmSummary = swarm.Summary
	// FleetConfig tunes a sharded origin fleet (origin URLs, breaker
	// and probe settings, hedging policy); an Edge's cache fills always
	// route through one built from EdgeConfig.Origins.
	FleetConfig = fleet.Config
	// Fleet is the sharded origin delivery layer: consistent-hash
	// placement, health-checked circuit breakers, hedged fetches, and
	// a token-bucket retry/hedge budget.
	Fleet = fleet.Fleet
	// SwarmFleetConfig reshards a swarm run's virtual origin the same
	// way (ring placement, per-session breakers, outage schedules).
	SwarmFleetConfig = swarm.FleetConfig
)

// NewJNDFieldCache returns a content-JND field cache holding at most
// maxEntries fields (<= 0 selects a default); reg may be nil.
func NewJNDFieldCache(maxEntries int, reg *Metrics) *JNDFieldCache {
	return jnd.NewFieldCache(maxEntries, reg)
}

// SetParallelism overrides the worker count the pixel kernels
// (content-JND fields, PSPNR reductions, tile scoring, offline
// preprocessing) use, returning the previous value. n <= 0 reverts to
// GOMAXPROCS. The kernels are bit-identical for every worker count.
func SetParallelism(n int) int { return parallel.SetWorkers(n) }

// Parallelism returns the current kernel worker count.
func Parallelism() int { return parallel.Workers() }

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// NewEventLog returns an event log retaining the last ringSize events
// (a default when <= 0) and optionally mirroring JSON lines to w.
func NewEventLog(w io.Writer, ringSize int) *EventLog { return obs.NewEventLog(w, ringSize) }

// NewServerWith is NewServer with observability attached: the server
// exposes /metrics and records per-endpoint request metrics into reg.
func NewServerWith(m *Manifest, reg *Metrics) (*Server, error) {
	return server.New(m, server.WithObs(reg))
}

// Genres.
const (
	Sports      = scene.Sports
	Performance = scene.Performance
	Documentary = scene.Documentary
	Tourism     = scene.Tourism
	Adventure   = scene.Adventure
	Science     = scene.Science
	Gaming      = scene.Gaming
)

// GenerateVideo creates a deterministic synthetic 360° video.
func GenerateVideo(g Genre, seed uint64, opts VideoOptions) *Video {
	return scene.Generate(g, seed, opts)
}

// DefaultVideoOptions returns the evaluation default geometry.
func DefaultVideoOptions() VideoOptions { return scene.DefaultOptions() }

// SynthesizeTrace generates a viewpoint trace for a video following the
// paper's object-tracking behaviour model (§8.5).
func SynthesizeTrace(v *Video, seed uint64) *ViewTrace {
	return viewport.Synthesize(v, seed, viewport.DefaultSynthesizeOpts())
}

// DefaultJND returns the paper-calibrated 360JND profile (§4.2).
func DefaultJND() *JNDProfile { return jnd.Default() }

// DefaultPreprocess returns Pano's preprocessing defaults: variable
// tiling with N=30 tiles, 1 s chunks, 1-in-10 frame sampling.
func DefaultPreprocess() PreprocessConfig { return provider.DefaultConfig() }

// Preprocess runs the provider pipeline (§5, §6.3): tiling, per-tile
// encoding sizes, and the compressed PSPNR lookup table.
func Preprocess(v *Video, history []*ViewTrace, cfg PreprocessConfig) (*Manifest, error) {
	return provider.Preprocess(v, history, cfg)
}

// NewPanoPlanner returns Pano's tile-level quality planner (§6.1).
func NewPanoPlanner() Planner { return player.NewPanoPlanner() }

// NewViewportPlanner returns the viewport-driven baseline planner
// (Flare-style distance-based allocation).
func NewViewportPlanner() Planner { return player.NewViewportPlanner("viewport-driven") }

// NewWholePlanner returns the whole-video baseline planner.
func NewWholePlanner() Planner { return player.WholePlanner{} }

// SynthesizeLTE generates an LTE-like bandwidth trace scaled to a mean
// throughput in Mbps.
func SynthesizeLTE(seed uint64, durationSec int, meanMbps float64) *NetTrace {
	return nettrace.SynthesizeLTE(seed, durationSec, meanMbps)
}

// NewLink wraps a bandwidth trace as an emulated download link.
func NewLink(t *NetTrace) *Link { return nettrace.NewLink(t) }

// ScaledLink builds a link whose mean throughput is frac times the
// video's top-level bitrate — the operating band of the paper's
// cellular traces (see DESIGN.md).
func ScaledLink(m *Manifest, frac float64, seed uint64) *Link {
	return sim.ScaledLink(m, frac, seed)
}

// DefaultSimConfig returns the default session configuration (2 s
// buffer target).
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// Simulate runs a trace-driven playback session — the Stream loop over
// an emulated link, in virtual time — and reports delivered quality,
// buffering, and bandwidth.
func Simulate(m *Manifest, tr *ViewTrace, link *Link, pl Planner, cfg SimConfig) (*SessionResult, error) {
	return sim.Run(m, tr, link, pl, cfg)
}

// NewServer returns an HTTP server for an encoded video.
func NewServer(m *Manifest) (*Server, error) { return server.New(m) }

// NewClient returns a streaming client for a server base URL.
func NewClient(baseURL string) *Client { return panoclient.New(baseURL) }

// NewEdge returns the edge cache tier for cfg.Origins; mount
// Edge.Handler and Close when done. cfg.CacheBytes = 0 degrades to a
// byte-transparent pass-through proxy. See cmd/pano-edge for the
// standalone binary.
func NewEdge(cfg EdgeConfig) (*Edge, error) { return edge.New(cfg) }

// DefaultFetchPolicy returns the client's default resilience knobs
// (3 attempts per ladder rung, 50ms-1s jittered backoff, buffer-derived
// attempt deadlines capped at 5s).
func DefaultFetchPolicy() FetchPolicy { return panoclient.DefaultFetchPolicy() }

// NewChaosInjector returns a fault-injection middleware for the
// profile; wrap any handler (typically Server.Handler) with Wrap. reg
// may be nil.
func NewChaosInjector(p ChaosProfile, reg *Metrics) *ChaosInjector {
	return chaos.New(p, chaos.WithObs(reg))
}

// ParseChaos parses the compact comma-separated chaos spec used by the
// pano-server -chaos flag, e.g. "seed=7,tile-error=0.1,tile-latency=20ms".
func ParseChaos(spec string) (ChaosProfile, error) { return chaos.Parse(spec) }

// NewTracer returns a span tracer. The zero TracerConfig samples every
// trace and keeps the most recent 64 in memory.
func NewTracer(cfg TracerConfig) *Tracer { return trace.New(cfg) }

// TraceHTTP wraps an http.Handler so requests carrying a W3C
// traceparent header (injected by a traced Client) get a server-side
// handler span in the same trace. Wrap it OUTSIDE chaos middleware so
// injected faults annotate the handler span.
func TraceHTTP(t *Tracer, next http.Handler) http.Handler { return trace.Middleware(t, next) }

// WriteChromeTrace renders finished traces (Tracer.Traces) as Chrome
// trace-event JSON, loadable in Perfetto or chrome://tracing.
func WriteChromeTrace(w io.Writer, traces ...*TraceData) error {
	return trace.WriteChromeTrace(w, traces...)
}

// NewTelemetry returns a windowed-telemetry sampler over a Metrics
// registry (nil registry yields the no-op nil sampler). Call Start for
// wall-clock sampling or Step for deterministic logical time, and Stop
// on shutdown.
func NewTelemetry(cfg TelemetryConfig) *TelemetrySampler { return telemetry.New(cfg) }

// DefaultSLOs returns the stock QoE objective set (rebuffer ratio,
// viewport-PSPNR floor, tile-fetch p99, edge hit ratio, session abort
// rate), each annotated with the paper claim it guards.
func DefaultSLOs() []SLO { return telemetry.DefaultSLOs() }

// ParseSLOs parses the compact -slo flag grammar ("default",
// "rebuffer<=0.02;edge_hit=off", window/burn suffixes) into an SLO
// set; "" disables telemetry.
func ParseSLOs(spec string) ([]SLO, error) { return telemetry.ParseSLOs(spec) }

// RunSwarm simulates a population of streaming sessions in virtual
// time on a worker pool: every session runs the real client loop
// (estimate → MPC → assign → fetch → stitch → QoE) against a logical
// network, and the aggregated Summary is deterministic — byte-identical
// for the same SwarmConfig at any worker count.
func RunSwarm(ctx context.Context, cfg SwarmConfig) (*SwarmReport, error) {
	return swarm.Run(ctx, cfg)
}
