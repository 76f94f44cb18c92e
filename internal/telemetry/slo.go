package telemetry

import (
	"math"
	"strings"
	"time"

	"pano/internal/obs"
)

// SLOKind selects how an SLO's burn rate is computed from the store.
type SLOKind int

const (
	// SLORate watches a windowed bad/total ratio against a budget:
	// burn = (Δbad / Δtotal) / Budget. With no TotalMetric the
	// denominator is elapsed wall seconds, clamped to retained history
	// (so a seconds-denominated counter like rebuffer time reads
	// directly as a stall ratio, even on a young process).
	SLORate SLOKind = iota
	// SLOFloor watches a gauge that must stay at or above Threshold:
	// burn = (fraction of window samples below Threshold) / Budget.
	SLOFloor
	// SLOCeil watches a gauge that must stay at or below Threshold:
	// burn = (fraction of window samples above Threshold) / Budget.
	SLOCeil
	// SLOQuantile watches a histogram's windowed Quantile against
	// Threshold: burn = estimated quantile / Threshold.
	SLOQuantile
)

func (k SLOKind) String() string {
	switch k {
	case SLORate:
		return "rate"
	case SLOFloor:
		return "floor"
	case SLOCeil:
		return "ceil"
	default:
		return "quantile"
	}
}

// SLO is one declarative service-level objective over scraped metrics.
// Evaluation runs on two windows (fast catches, slow confirms): the
// state escalates to warn/page only when BOTH windows burn past the
// respective threshold, which also makes recovery fast — the fast
// window clears as soon as the condition does.
type SLO struct {
	// Name identifies the SLO in /debug/slo, metrics, and events.
	Name string
	Kind SLOKind
	// Metric names the source family; "|"-separated alternatives are
	// pooled (e.g. the client's tile-attempt and the server's request
	// latency), so one SLO set serves every binary and absent families
	// cost nothing.
	Metric string
	// MatchKey/MatchValues select which label sets of the family count
	// as "bad" (SLORate numerators, e.g. status=tile_error); empty
	// matches every series.
	MatchKey    string
	MatchValues []string
	// TotalMetric is the SLORate denominator family (every series; ""
	// uses elapsed window seconds).
	TotalMetric string
	// Threshold is the floor/ceiling/quantile bound (unused by SLORate).
	Threshold float64
	// Budget is the allowed bad fraction: the bad/total ratio budget for
	// SLORate, the violating-sample budget for floor/ceil (unused by
	// SLOQuantile, where Threshold itself is the budget).
	Budget float64
	// Quantile is the watched quantile for SLOQuantile (default 0.99).
	Quantile float64
	// FastWindow/SlowWindow are the burn evaluation windows (default
	// 5m / 1h). Both clamp to available history, so a young process
	// still evaluates.
	FastWindow, SlowWindow time.Duration
	// WarnBurn/PageBurn are the burn-rate thresholds for the warn and
	// page states.
	WarnBurn, PageBurn float64
	// ClearAfter is how many consecutive clean evaluations must pass
	// before the state steps back down (flap damping; default 3).
	ClearAfter int
	// Guards documents which Pano claim the SLO protects (shown in
	// /debug/slo and the dashboard).
	Guards string
}

func (s SLO) withDefaults() SLO {
	if s.FastWindow <= 0 {
		s.FastWindow = 5 * time.Minute
	}
	if s.SlowWindow <= 0 {
		s.SlowWindow = time.Hour
	}
	if s.Quantile <= 0 || s.Quantile >= 1 {
		s.Quantile = 0.99
	}
	if unset(s.WarnBurn) {
		s.WarnBurn = 2
	}
	if unset(s.PageBurn) {
		s.PageBurn = 6
	}
	if s.ClearAfter <= 0 {
		s.ClearAfter = 3
	}
	if unset(s.Budget) {
		s.Budget = 0.1
	}
	return s
}

// unset reports whether a budget or burn takes its default: it is not
// finite and positive (a NaN or infinite one would silence the SLO).
func unset(v float64) bool { return !(v > 0) || math.IsInf(v, 1) }

func (s SLO) metrics() []string { return strings.Split(s.Metric, "|") }

// SLOState is the three-level alert state.
type SLOState int

const (
	StateOK SLOState = iota
	StateWarn
	StatePage
)

func (s SLOState) String() string {
	switch s {
	case StateOK:
		return "ok"
	case StateWarn:
		return "warn"
	default:
		return "page"
	}
}

// SLOStatus is one SLO's current evaluation, as served by /debug/slo.
type SLOStatus struct {
	Name        string  `json:"name"`
	Kind        string  `json:"kind"`
	State       string  `json:"state"`
	BurnFast    float64 `json:"burn_fast"`
	BurnSlow    float64 `json:"burn_slow"`
	Value       float64 `json:"value"` // latest raw signal (ratio, gauge, quantile)
	HasData     bool    `json:"has_data"`
	Threshold   float64 `json:"threshold,omitempty"`
	Budget      float64 `json:"budget,omitempty"`
	Quantile    float64 `json:"quantile,omitempty"`
	WarnBurn    float64 `json:"warn_burn"`
	PageBurn    float64 `json:"page_burn"`
	FastSec     float64 `json:"fast_window_sec"`
	SlowSec     float64 `json:"slow_window_sec"`
	Transitions uint64  `json:"transitions"`
	Guards      string  `json:"guards,omitempty"`
	Metric      string  `json:"metric"`
}

// status is the SLO's configured shape in state, before any burn,
// value or transition is filled in.
func (s SLO) status(state SLOState) SLOStatus {
	return SLOStatus{
		Name: s.Name, Kind: s.Kind.String(), State: state.String(),
		Threshold: s.Threshold, Budget: s.Budget,
		WarnBurn: s.WarnBurn, PageBurn: s.PageBurn,
		FastSec: s.FastWindow.Seconds(), SlowSec: s.SlowWindow.Seconds(),
		Guards: s.Guards, Metric: s.Metric,
	}
}

// sloEval is one SLO's evaluation state inside the sampler.
type sloEval struct {
	slo         SLO
	state       SLOState
	clearStreak int
	transitions uint64
	last        SLOStatus
	stateGauge  *obs.Gauge
}

// burn computes the SLO's burn rate over one window ending at now,
// plus the window's raw signal value. hasData is false when no source
// series produced samples (an idle SLO holds at burn 0).
func (e *sloEval) burn(st *Store, now time.Time, window time.Duration) (burn, value float64, hasData bool) {
	s := e.slo
	since := now.Add(-window)
	switch s.Kind {
	case SLORate:
		bad, ok := st.DeltaSum(s.metrics(), s.MatchKey, s.MatchValues, since)
		if !ok {
			return 0, 0, false
		}
		var total float64
		if s.TotalMetric == "" {
			// Wall-time denominator, clamped to retained history: a process
			// younger than the window is judged over the seconds it actually
			// lived through, not diluted by window time it never saw.
			total = window.Seconds()
			if oldest, has := st.EarliestSample(s.metrics()); has {
				if avail := now.Sub(oldest).Seconds(); avail < total {
					total = avail
				}
			}
		} else {
			total, _ = st.DeltaSum(strings.Split(s.TotalMetric, "|"), "", nil, since)
		}
		if total <= 0 {
			return 0, 0, true
		}
		ratio := bad / total
		return ratio / s.Budget, ratio, true
	case SLOFloor, SLOCeil:
		frac, n := st.ViolationFrac(s.metrics(), since, s.Threshold, s.Kind == SLOCeil)
		if n == 0 {
			return 0, 0, false
		}
		var latest float64
		for _, fam := range s.metrics() {
			for _, sr := range st.Family(fam) {
				if p, ok := sr.Last(); ok {
					latest = p.V
				}
			}
		}
		return frac / s.Budget, latest, true
	default: // SLOQuantile
		q, ok := st.QuantileMax(s.metrics(), s.Quantile, since)
		if !ok {
			return 0, 0, false
		}
		if s.Threshold <= 0 {
			return 0, q, true
		}
		return q / s.Threshold, q, true
	}
}

// evaluate runs one burn-rate evaluation, returning the transition (if
// any) as (from, to, true).
func (e *sloEval) evaluate(st *Store, now time.Time) (from, to SLOState, changed bool) {
	s := e.slo
	burnFast, value, hasFast := e.burn(st, now, s.FastWindow)
	burnSlow, _, _ := e.burn(st, now, s.SlowWindow)

	cand := StateOK
	if burnFast >= s.WarnBurn && burnSlow >= s.WarnBurn {
		cand = StateWarn
	}
	if burnFast >= s.PageBurn && burnSlow >= s.PageBurn {
		cand = StatePage
	}

	prev := e.state
	switch {
	case cand > e.state:
		// Escalation is immediate.
		e.state = cand
		e.clearStreak = 0
	case cand < e.state:
		// De-escalation needs ClearAfter consecutive clean evaluations
		// (flap damping), then drops straight to the candidate.
		e.clearStreak++
		if e.clearStreak >= s.ClearAfter {
			e.state = cand
			e.clearStreak = 0
		}
	default:
		e.clearStreak = 0
	}

	e.last = s.status(e.state)
	e.last.BurnFast, e.last.BurnSlow, e.last.Value, e.last.HasData = burnFast, burnSlow, value, hasFast
	if s.Kind == SLOQuantile {
		e.last.Quantile = s.Quantile
	}
	if e.state != prev {
		e.transitions++
	}
	e.last.Transitions = e.transitions
	e.stateGauge.Set(float64(e.state))
	return prev, e.state, e.state != prev
}
