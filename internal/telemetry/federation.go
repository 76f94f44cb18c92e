package telemetry

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"pano/internal/obs"
	"pano/internal/trace"
)

// GaugeAgg selects how a gauge family is merged across instances in
// the cluster rollup. Counters always sum and histograms always merge
// by bucket addition; gauges are the only type whose cluster meaning is
// ambiguous (capacity gauges sum, ratios average, alert states take
// the worst instance).
type GaugeAgg int

const (
	AggSum GaugeAgg = iota
	AggMax
	AggAvg
)

// defaultGaugeAgg carries the aggregation hints for the repo's own
// gauge families; it is read, never written. Anything unlisted sums —
// the right default for capacity-like gauges (cache budgets, open
// origins, build_info instance counts).
var defaultGaugeAgg = map[string]GaugeAgg{
	// Ratios and per-session quality levels: the fleet value is the
	// average instance, not the sum.
	"pano_edge_hit_ratio":          AggAvg,
	"pano_client_buffer_sec":       AggAvg,
	"pano_client_session_mos":      AggAvg,
	"pano_sim_session_mos":         AggAvg,
	"pano_client_session_pspnr_db": AggAvg,
	"pano_sim_session_pspnr_db":    AggAvg,
	// Alert/health states: the fleet is as bad as its worst member.
	"pano_slo_state":                         AggMax,
	"pano_fleet_breaker_state":               AggMax,
	"pano_runtime_gc_pause_p99_seconds":      AggMax,
	"pano_runtime_sched_latency_p99_seconds": AggMax,
}

// ScrapeTarget is one /metrics endpoint to federate.
type ScrapeTarget struct {
	// Instance labels every series scraped from this target.
	Instance string
	// URL is the target base ("http://host:port") or its /metrics URL.
	URL string
}

// ParseScrapeTargets parses the -scrape flag: a comma-separated list of
// "url" or "instance=url" entries. Without an explicit instance name
// the URL's host:port is used.
func ParseScrapeTargets(csv string) ([]ScrapeTarget, error) {
	var out []ScrapeTarget
	seen := map[string]bool{}
	for _, part := range strings.Split(csv, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		t := ScrapeTarget{URL: part}
		if eq := strings.Index(part, "="); eq > 0 && !strings.Contains(part[:eq], "/") && !strings.Contains(part[:eq], ":") {
			t.Instance, t.URL = part[:eq], part[eq+1:]
		}
		if !strings.Contains(t.URL, "://") {
			t.URL = "http://" + t.URL
		}
		u, err := url.Parse(t.URL)
		if err != nil || u.Host == "" {
			return nil, fmt.Errorf("telemetry: bad scrape target %q", part)
		}
		if t.Instance == "" {
			t.Instance = u.Host
		}
		if seen[t.Instance] {
			return nil, fmt.Errorf("telemetry: duplicate scrape instance %q", t.Instance)
		}
		seen[t.Instance] = true
		out = append(out, t)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("telemetry: no scrape targets in %q", csv)
	}
	return out, nil
}

// ScraperConfig tunes a federation Scraper.
type ScraperConfig struct {
	// Targets are the endpoints to pull, in a fixed order (rollup
	// summation follows it, keeping merged floats deterministic).
	Targets []ScrapeTarget
	// Timeout bounds each target's scrape (default 2s).
	Timeout time.Duration
	// Interval is the expected scrape period; it only shapes the
	// dashboard's histogram quantile window (default 1s).
	Interval time.Duration
	// Log receives scrape_failed events; nil disables.
	Log *obs.EventLog
}

// targetState is one target's scrape bookkeeping. series always holds
// the last successful parse: a dead edge keeps reporting its final
// counter values (frozen, marked stale via pano_federation_target_up 0)
// instead of vanishing and zeroing cluster rates.
type targetState struct {
	target     ScrapeTarget
	metricsURL string
	tracesURL  string

	up       bool
	everUp   bool
	lastOK   time.Time
	lastErr  string
	scrapes  float64
	failures float64
	series   []obs.SnapshotSeries // last good, without instance label
}

// Scraper federates N /metrics endpoints: per-tick it pulls every
// target concurrently, relabels series with instance=, merges cluster
// rollups, and tracks staleness. NewPlane points a Sampler at Collect,
// so the stock SLOs evaluate fleet-wide.
type Scraper struct {
	cfg ScraperConfig
	// self is the plane's own registry (NewPlane): its series join the
	// per-instance view as instance "obsd" so the federated /metrics also
	// covers the federator, and never enter the rollup — they are
	// observer overhead, not cluster load.
	self *obs.Registry

	mu      sync.Mutex
	targets []*targetState
	rollup  []obs.SnapshotSeries
	// unmergeable lists histogram families whose bucket layouts differ
	// across instances: they stay per-instance only.
	unmergeable map[string]bool

	// instStore keeps per-instance history for the cluster dashboard's
	// per-instance panels (the sampler's own store holds the rollup).
	instStore *Store
}

// NewScraper validates the target list and returns a Scraper.
func NewScraper(cfg ScraperConfig) (*Scraper, error) {
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("telemetry: scraper needs at least one target")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	s := &Scraper{
		cfg:         cfg,
		unmergeable: map[string]bool{},
		instStore:   NewStore(2 * dashPoints),
	}
	seen := map[string]bool{}
	for _, t := range cfg.Targets {
		if t.Instance == "" || t.URL == "" {
			return nil, fmt.Errorf("telemetry: scrape target needs instance and URL: %+v", t)
		}
		if seen[t.Instance] {
			return nil, fmt.Errorf("telemetry: duplicate scrape instance %q", t.Instance)
		}
		seen[t.Instance] = true
		base := strings.TrimSuffix(strings.TrimSuffix(t.URL, "/"), "/metrics")
		s.targets = append(s.targets, &targetState{
			target:     t,
			metricsURL: base + "/metrics",
			tracesURL:  base + "/debug/traces",
		})
	}
	return s, nil
}

// get fetches one target URL within the scrape timeout and returns the
// body of a 200 answer.
func (s *Scraper) get(url string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 64<<20))
}

// Collect performs one federation tick: scrape every target (concurrent,
// per-target timeout), refresh staleness, rebuild the rollup, and feed
// the per-instance view into the dashboard store. The returned series —
// cluster rollup plus pano_federation_* meta — are what the plane's
// sampler observes, so the stock SLO engine sees exactly one series set
// per family and burn-rate math never double-counts an instance.
func (s *Scraper) Collect(now time.Time) []obs.SnapshotSeries {
	type result struct {
		series []obs.SnapshotSeries
		err    error
	}
	results := make([]result, len(s.targets))
	var wg sync.WaitGroup
	for i := range s.targets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, err := s.get(s.targets[i].metricsURL)
			if err == nil {
				results[i].series, err = obs.ParsePrometheus(bytes.NewReader(body))
			}
			results[i].err = err
		}(i)
	}
	wg.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	for i, ts := range s.targets {
		ts.scrapes++
		if results[i].err != nil {
			ts.failures++
			ts.up = false
			ts.lastErr = results[i].err.Error()
			s.cfg.Log.Logger().Warn("scrape_failed",
				"instance", ts.target.Instance, "url", ts.metricsURL, "err", ts.lastErr)
			continue
		}
		ts.up = true
		ts.everUp = true
		ts.lastOK = now
		ts.lastErr = ""
		ts.series = results[i].series
	}
	s.rollup = s.buildRollupLocked()
	meta := s.metaSeriesLocked()
	s.instStore.Observe(now, s.instanceSeriesLocked())
	out := make([]obs.SnapshotSeries, 0, len(s.rollup)+len(meta))
	out = append(out, s.rollup...)
	out = append(out, meta...)
	return out
}

// rollupKey identifies one merged series: family plus labels minus
// instance.
type rollupAccum struct {
	series obs.SnapshotSeries
	n      float64 // instances contributing (for AggAvg)
	bad    bool    // histogram layout conflict
}

// buildRollupLocked merges every target's last-good series. Iteration
// is strictly target-config order then series order, so float
// accumulation is reproducible and — for counters — exactly equals the
// left-to-right sum a verifier computes from the same per-process
// scrapes.
func (s *Scraper) buildRollupLocked() []obs.SnapshotSeries {
	accum := map[string]*rollupAccum{}
	var order []string
	badFams := map[string]bool{}
	for _, ts := range s.targets {
		for _, ss := range ts.series {
			key := ss.Name + "\xff" + ss.Key
			a := accum[key]
			if a == nil {
				cp := ss
				cp.Labels = append([]obs.Label(nil), ss.Labels...)
				cp.Uppers = append([]float64(nil), ss.Uppers...)
				cp.Counts = append([]uint64(nil), ss.Counts...)
				accum[key] = &rollupAccum{series: cp, n: 1}
				order = append(order, key)
				continue
			}
			a.n++
			switch ss.Type {
			case "histogram":
				if !slices.Equal(a.series.Uppers, ss.Uppers) {
					badFams[ss.Name] = true
					a.bad = true
					continue
				}
				for i := range ss.Counts {
					a.series.Counts[i] += ss.Counts[i]
				}
				a.series.Count += ss.Count
				a.series.Sum += ss.Sum
			case "counter":
				a.series.Value += ss.Value
			default: // gauge
				switch defaultGaugeAgg[ss.Name] {
				case AggMax:
					if ss.Value > a.series.Value {
						a.series.Value = ss.Value
					}
				case AggAvg:
					a.series.Value += ss.Value // divided by n below
				default:
					a.series.Value += ss.Value
				}
			}
		}
	}
	s.unmergeable = badFams
	var out []obs.SnapshotSeries
	for _, key := range order {
		a := accum[key]
		if badFams[a.series.Name] {
			continue // layout conflict: family stays per-instance only
		}
		if a.series.Type != "histogram" && a.series.Type != "counter" &&
			defaultGaugeAgg[a.series.Name] == AggAvg && a.n > 0 {
			a.series.Value /= a.n
		}
		out = append(out, a.series)
	}
	sortSeries(out)
	return out
}

// metaSeriesLocked builds the pano_federation_* series describing the
// federation itself.
func (s *Scraper) metaSeriesLocked() []obs.SnapshotSeries {
	mk := func(name, help, typ string, value float64, labels ...obs.Label) obs.SnapshotSeries {
		return obs.SnapshotSeries{
			Name: name, Help: help, Type: typ,
			Labels: labels, Key: obs.SeriesKey(labels...), Value: value,
		}
	}
	var out []obs.SnapshotSeries
	stale := 0
	for _, ts := range s.targets {
		up := 0.0
		if ts.up {
			up = 1
		} else {
			stale++
		}
		inst := obs.L("instance", ts.target.Instance)
		out = append(out,
			mk("pano_federation_target_up",
				"1 when the instance's last scrape succeeded; 0 marks its series stale (frozen at last-good values)",
				"gauge", up, inst),
			mk("pano_federation_scrapes_total",
				"scrape attempts per federated instance", "counter", ts.scrapes, inst),
			mk("pano_federation_scrape_errors_total",
				"failed scrapes per federated instance", "counter", ts.failures, inst),
		)
	}
	out = append(out,
		mk("pano_federation_targets", "configured federation targets", "gauge", float64(len(s.targets))),
		mk("pano_federation_stale_targets",
			"targets whose latest scrape failed (their series are frozen, not zeroed)",
			"gauge", float64(stale)),
		mk("pano_federation_unmergeable_families",
			"histogram families excluded from the rollup because instances disagree on bucket layout",
			"gauge", float64(len(s.unmergeable))),
	)
	sortSeries(out)
	return out
}

// instanceSeriesLocked returns every target's last-good series labelled
// with instance=, plus the plane's own as instance "obsd".
func (s *Scraper) instanceSeriesLocked() []obs.SnapshotSeries {
	var out []obs.SnapshotSeries
	for _, ts := range s.targets {
		out = append(out, relabelInstance(ts.series, ts.target.Instance)...)
	}
	if s.self != nil {
		out = append(out, relabelInstance(s.self.Snapshot(), "obsd")...)
	}
	return out
}

// relabelInstance stamps instance= onto each series (replacing any
// existing instance label) and recomputes the series key.
func relabelInstance(series []obs.SnapshotSeries, instance string) []obs.SnapshotSeries {
	out := make([]obs.SnapshotSeries, 0, len(series))
	for _, ss := range series {
		labels := make([]obs.Label, 0, len(ss.Labels)+1)
		for _, l := range ss.Labels {
			if l.Key != "instance" {
				labels = append(labels, l)
			}
		}
		labels = append(labels, obs.L("instance", instance))
		ss.Labels = labels
		ss.Key = obs.SeriesKey(labels...)
		out = append(out, ss)
	}
	return out
}

// sortSeries orders series by family, then label key.
func sortSeries(series []obs.SnapshotSeries) {
	sort.SliceStable(series, func(i, j int) bool {
		if series[i].Name != series[j].Name {
			return series[i].Name < series[j].Name
		}
		return series[i].Key < series[j].Key
	})
}

// RollupSeries returns the latest cluster rollup (after at least one
// Collect).
func (s *Scraper) RollupSeries() []obs.SnapshotSeries {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]obs.SnapshotSeries(nil), s.rollup...)
}

// InstanceSeries returns the per-instance view: every target's
// last-good series labelled instance=, plus the federator's own.
func (s *Scraper) InstanceSeries() []obs.SnapshotSeries {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.instanceSeriesLocked()
}

// TargetStatus reports one target's federation state.
type TargetStatus struct {
	Instance string    `json:"instance"`
	URL      string    `json:"url"`
	Up       bool      `json:"up"`
	EverUp   bool      `json:"ever_up"`
	LastOK   time.Time `json:"last_ok"`
	LastErr  string    `json:"last_err,omitempty"`
	Scrapes  float64   `json:"scrapes"`
	Failures float64   `json:"failures"`
}

// Targets reports every target's current state, in config order.
func (s *Scraper) Targets() []TargetStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TargetStatus, len(s.targets))
	for i, ts := range s.targets {
		out[i] = TargetStatus{
			Instance: ts.target.Instance, URL: ts.metricsURL,
			Up: ts.up, EverUp: ts.everUp, LastOK: ts.lastOK, LastErr: ts.lastErr,
			Scrapes: ts.scrapes, Failures: ts.failures,
		}
	}
	return out
}

// exposition is what pano-obsd's /metrics serves: the cluster rollup
// (no instance label), the pano_federation_* health series and every
// per-instance series.
func (s *Scraper) exposition() []obs.SnapshotSeries {
	s.mu.Lock()
	defer s.mu.Unlock()
	series := append(append([]obs.SnapshotSeries(nil), s.rollup...), s.metaSeriesLocked()...)
	return append(series, s.instanceSeriesLocked()...)
}

// dashPanels renders per-instance dashboard panels from the scraper's
// windowed store, shown beside the rollup panels of the plane's
// sampler.
func (s *Scraper) dashPanels(now time.Time) []DashSeries {
	return storePanels(s.instStore, now, s.cfg.Interval*dashPoints)
}

// AssembleTraces pulls every target's /debug/traces and joins the spans
// on trace ID into cross-process traces. Targets without a tracer
// (404) or currently unreachable are skipped — trace assembly is
// best-effort by design, unlike metrics staleness.
func (s *Scraper) AssembleTraces() []*trace.TraceData {
	var procs []trace.ProcessTraces
	for _, ts := range s.targets { // the URLs and names are immutable

		body, err := s.get(ts.tracesURL)
		if err != nil {
			continue
		}
		if tds, err := trace.ParseChromeTrace(body); err == nil && len(tds) > 0 {
			procs = append(procs, trace.ProcessTraces{Process: ts.target.Instance, Traces: tds})
		}
	}
	return trace.AssembleTraces(procs)
}

// findTrace assembles the one trace with id (nil when no target holds
// any of its spans).
func (s *Scraper) findTrace(id trace.TraceID) *trace.TraceData {
	for _, td := range s.AssembleTraces() {
		if td.ID == id {
			return td
		}
	}
	return nil
}

// NewPlane assembles the cluster observability plane (cmd/pano-obsd,
// the cluster experiment):
//   - a scraper over cfg;
//   - the plane's own registry — build info, event-ring drops when
//     cfg.Log is set, the sampler's self-metrics — which joins the
//     per-instance view as instance "obsd";
//   - a sampler that observes the federated rollup every cfg.Interval
//     and evaluates slos (nil evaluates none: the sampler is still the
//     scrape clock);
//   - the handler: /metrics (rollup, federation health, per-instance
//     series), /debug/traces (assembled across targets on demand),
//     /debug/slo, /debug/dash and /healthz.
func NewPlane(cfg ScraperConfig, slos []SLO) (*Scraper, *Sampler, http.Handler, error) {
	sc, err := NewScraper(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	sc.self = obs.NewRegistry()
	obs.ExportBuildInfo(sc.self)
	cfg.Log.ObserveDrops(sc.self)
	if slos == nil {
		slos = []SLO{}
	}
	smp := New(Config{Obs: sc.self, Interval: sc.cfg.Interval, SLOs: slos, Log: cfg.Log})
	smp.fed = sc
	mux := http.NewServeMux()
	Mount(mux, nil, nil, nil, smp)
	mux.Handle("/metrics", metricsHandler(sc.exposition))
	mux.Handle("/debug/traces", tracesHandler(sc.findTrace, sc.AssembleTraces))
	return sc, smp, mux, nil
}
