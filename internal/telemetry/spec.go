package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// DefaultSLOs returns the QoE objective set every pano binary ships
// with. Every session — HTTP, simulated, swarm — runs the one client
// loop and reports through its pano_client_* families; where a server
// or edge measures the same thing from its side the source families are
// "|"-pooled, so the same set is meaningful on each binary. A family
// that never appears simply holds its SLO at ok. The Guards strings
// map each SLO to the paper claim it protects (mirrored in
// internal/obs/doc.go).
func DefaultSLOs() []SLO {
	return []SLO{
		{
			Name: "rebuffer", Kind: SLORate,
			Metric: "pano_client_rebuffer_seconds_total",
			Budget: 0.05, WarnBurn: 2, PageBurn: 6,
			Guards: "buffering-ratio axis of Figures 12/17: stall time under 5% of wall time",
		},
		{
			Name: "pspnr_floor", Kind: SLOFloor,
			Metric:    "pano_client_session_pspnr_db",
			Threshold: 30, Budget: 0.1, WarnBurn: 1, PageBurn: 3,
			Guards: "quality axis of Figures 13/15: session viewport PSPNR above the MOS-2 band",
		},
		{
			Name: "tile_p99", Kind: SLOQuantile,
			Metric:    "pano_client_tile_attempt_seconds|pano_http_request_seconds",
			Threshold: 0.5, Quantile: 0.99, WarnBurn: 1, PageBurn: 2,
			Guards: "§6.2/§8.4 serving overhead: tile fetch tail latency within half a chunk duration",
		},
		{
			Name: "edge_hit", Kind: SLOFloor,
			Metric:    "pano_edge_hit_ratio",
			Threshold: 0.5, Budget: 0.25, WarnBurn: 1, PageBurn: 2,
			Guards: "edge-tier offload claim (BENCH_edge): cache absorbs most tile demand",
		},
		{
			Name: "abort", Kind: SLORate,
			Metric:      "pano_client_sessions_total",
			MatchKey:    "status",
			MatchValues: []string{"manifest_error", "tile_error"},
			TotalMetric: "pano_client_sessions_total",
			Budget:      0.02, WarnBurn: 2, PageBurn: 5,
			Guards: "§7 resilience claim: sessions never abort on tile faults",
		},
		{
			Name: "failover_p99", Kind: SLOQuantile,
			Metric:    "pano_fleet_failover_seconds",
			Threshold: 1.0, Quantile: 0.99, WarnBurn: 1, PageBurn: 2,
			Guards: "origin-fleet resilience (BENCH_fleet): losing a shard re-answers within one chunk duration",
		},
		{
			Name: "breaker_open", Kind: SLOCeil,
			Metric:    "pano_fleet_origins_open",
			Threshold: 1, Budget: 0.25, WarnBurn: 1, PageBurn: 2,
			Guards: "origin-fleet resilience (BENCH_fleet): at most one shard's breaker open at a time",
		},
		{
			Name: "hedge_rate", Kind: SLORate,
			Metric:      "pano_client_hedge_issued_total",
			TotalMetric: "pano_fleet_requests_total",
			Budget:      0.2, WarnBurn: 2, PageBurn: 5,
			Guards: "origin-fleet efficiency (BENCH_fleet): hedged duplicates stay a small fraction of fleet traffic",
		},
	}
}

// ParseSLOs parses the compact -slo flag grammar into an SLO set.
//
//	""                      -> nil (telemetry disabled)
//	"default"               -> DefaultSLOs()
//	"rebuffer<=0.02"        -> defaults with the rebuffer budget tightened
//	"pspnr_floor>=40"       -> defaults with the PSPNR floor raised
//	"edge_hit=off;abort=off" -> defaults minus those SLOs
//
// Items are ';' or ',' separated. Each names a default SLO and
// adjusts its bound: "<=v" sets the budget (SLORate) or ceiling
// (SLOCeil/SLOQuantile), ">=v" sets the floor (SLOFloor), "=off"
// removes it. Two optional suffixes tune evaluation:
// "@fast/slow" sets the windows (Go durations, e.g. "@30s/5m") and
// "!warn/page" the burn thresholds (e.g. "!2/6"). Every bound and burn
// must be finite, a budget and a quantile's ceiling above 0, and
// 0 < warn <= page: any other value would silence the SLO.
//
//	"rebuffer<=0.02@30s/5m!2/6"
func ParseSLOs(spec string) ([]SLO, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	slos := DefaultSLOs()
	if spec == "default" {
		return slos, nil
	}
	byName := make(map[string]int, len(slos))
	for i, s := range slos {
		byName[s.Name] = i
	}
	removed := make(map[string]bool)

	for _, item := range strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == ',' }) {
		item = strings.TrimSpace(item)
		if item == "" || item == "default" {
			continue
		}
		rest := item
		var fastSlow, burns string
		if i := strings.IndexByte(rest, '!'); i >= 0 {
			rest, burns = rest[:i], rest[i+1:]
		}
		if i := strings.IndexByte(rest, '@'); i >= 0 {
			rest, fastSlow = rest[:i], rest[i+1:]
		}
		name, op, val, err := splitSLOItem(rest)
		if err != nil {
			return nil, err
		}
		idx, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("telemetry: unknown SLO %q (known: %s)", name, strings.Join(sloNames(slos), ", "))
		}
		s := &slos[idx]
		switch {
		case op == "=" && val == "off":
			removed[name] = true
		case op == "=" || op == "<=" || op == ">=":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("telemetry: SLO %s: bad bound %q (want a finite number)", name, val)
			}
			switch s.Kind {
			case SLORate:
				if v <= 0 {
					return nil, fmt.Errorf("telemetry: SLO %s: budget %v, want > 0", name, v)
				}
				s.Budget = v
			case SLOFloor:
				if op == "<=" {
					return nil, fmt.Errorf("telemetry: SLO %s is a floor; use >=", name)
				}
				s.Threshold = v
			default: // SLOCeil, SLOQuantile
				if op == ">=" {
					return nil, fmt.Errorf("telemetry: SLO %s is a ceiling; use <=", name)
				}
				if s.Kind == SLOQuantile && v <= 0 {
					return nil, fmt.Errorf("telemetry: SLO %s: quantile ceiling %v, want > 0", name, v)
				}
				s.Threshold = v
			}
		default:
			return nil, fmt.Errorf("telemetry: bad SLO item %q", item)
		}
		if fastSlow != "" {
			fast, slow, err := parseWindows(fastSlow)
			if err != nil {
				return nil, fmt.Errorf("telemetry: SLO %s: %w", name, err)
			}
			s.FastWindow, s.SlowWindow = fast, slow
		}
		if burns != "" {
			warn, page, err := parseBurns(burns)
			if err != nil {
				return nil, fmt.Errorf("telemetry: SLO %s: %w", name, err)
			}
			s.WarnBurn, s.PageBurn = warn, page
		}
	}

	out := slos[:0]
	for _, s := range slos {
		if !removed[s.Name] {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("telemetry: every SLO was turned off; use -slo \"\" to disable telemetry")
	}
	return out, nil
}

func splitSLOItem(item string) (name, op, val string, err error) {
	for _, cand := range []string{"<=", ">=", "="} {
		if i := strings.Index(item, cand); i > 0 {
			return strings.TrimSpace(item[:i]), cand, strings.TrimSpace(item[i+len(cand):]), nil
		}
	}
	return "", "", "", fmt.Errorf("telemetry: bad SLO item %q (want name<=v, name>=v, or name=off)", item)
}

func parseWindows(s string) (fast, slow time.Duration, err error) {
	a, b, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("bad windows %q (want fast/slow, e.g. 30s/5m)", s)
	}
	if fast, err = time.ParseDuration(a); err != nil {
		return 0, 0, fmt.Errorf("bad fast window %q", a)
	}
	if slow, err = time.ParseDuration(b); err != nil {
		return 0, 0, fmt.Errorf("bad slow window %q", b)
	}
	if fast <= 0 || slow < fast {
		return 0, 0, fmt.Errorf("want 0 < fast <= slow, got %v/%v", fast, slow)
	}
	return fast, slow, nil
}

func parseBurns(s string) (warn, page float64, err error) {
	a, b, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("bad burns %q (want warn/page, e.g. 2/6)", s)
	}
	if warn, err = strconv.ParseFloat(a, 64); err != nil || !(warn > 0) || math.IsInf(warn, 1) {
		return 0, 0, fmt.Errorf("bad warn burn %q (want finite and > 0)", a)
	}
	if page, err = strconv.ParseFloat(b, 64); err != nil || !(page >= warn) || math.IsInf(page, 1) {
		return 0, 0, fmt.Errorf("bad page burn %q (want finite and >= warn)", b)
	}
	return warn, page, nil
}

func sloNames(slos []SLO) []string {
	out := make([]string, len(slos))
	for i, s := range slos {
		out[i] = s.Name
	}
	sort.Strings(out)
	return out
}
