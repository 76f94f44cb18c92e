package telemetry

import (
	"math"
	"strings"
	"testing"
	"time"

	"pano/internal/obs"
)

// rateSLO is the workhorse test objective: stall seconds against a 10%
// budget of wall time, tight windows, page at 6x burn.
func rateSLO() SLO {
	return SLO{
		Name: "stall", Kind: SLORate, Metric: "bad_seconds_total",
		Budget: 0.1, FastWindow: 10 * time.Second, SlowWindow: 20 * time.Second,
		WarnBurn: 2, PageBurn: 6, ClearAfter: 3,
	}
}

func newTestSampler(t *testing.T, slos ...SLO) (*Sampler, *obs.Registry, *obs.EventLog) {
	t.Helper()
	reg := obs.NewRegistry()
	evlog := obs.NewEventLog(nil, 0)
	s := newSampler(Config{Obs: reg, SLOs: slos, Log: evlog}, false)
	if s == nil {
		t.Fatal("New returned nil for a valid config")
	}
	return s, reg, evlog
}

func TestBurnRateEscalationAndRecovery(t *testing.T) {
	s, reg, evlog := newTestSampler(t, rateSLO())
	bad := reg.Counter("bad_seconds_total", "stall seconds")

	sec := 0
	stepN := func(n int, badPerSec float64) {
		for i := 0; i < n; i++ {
			bad.Add(badPerSec)
			s.Step(at(sec))
			sec++
		}
	}

	// Clean warm-up: enough history for both windows, state stays ok.
	stepN(25, 0)
	if got := s.State("stall"); got != StateOK {
		t.Fatalf("after warm-up: state = %v, want ok", got)
	}

	// Full-rate stalling (ratio 1.0 = 10x budget): the fast window burns
	// past page quickly; the slow window follows as bad time accumulates.
	stepN(15, 1)
	if got := s.State("stall"); got != StatePage {
		t.Fatalf("under sustained burn: state = %v, want page", got)
	}
	st := s.States()[0]
	if st.BurnFast < 6 || st.BurnSlow < 6 {
		t.Errorf("paged with burns %.1f/%.1f, want both >= 6", st.BurnFast, st.BurnSlow)
	}

	// The transition surfaced as a counter, a gauge, and an event.
	if v := reg.GaugeValue("pano_slo_state", obs.L("slo", "stall")); v != float64(StatePage) {
		t.Errorf("pano_slo_state = %v, want %v", v, float64(StatePage))
	}
	if n := len(evlog.Find("slo_transition")); n == 0 {
		t.Errorf("no slo_transition events logged")
	}
	if v := reg.CounterValue("pano_slo_transitions_total", obs.L("slo", "stall"), obs.L("to", "page")); v < 1 {
		t.Errorf("pano_slo_transitions_total{to=page} = %v, want >= 1", v)
	}

	// Recovery: stall stops; the fast window drains first, then the state
	// steps down only after ClearAfter consecutive clean evaluations.
	stepN(40, 0)
	if got := s.State("stall"); got != StateOK {
		t.Fatalf("after recovery: state = %v, want ok", got)
	}
	if v := reg.GaugeValue("pano_slo_state", obs.L("slo", "stall")); v != 0 {
		t.Errorf("recovered pano_slo_state = %v, want 0", v)
	}
}

func TestYoungProcessBurnClampsToHistory(t *testing.T) {
	// A process a few seconds old that stalls 100% of the time must burn
	// at full rate: the wall-seconds denominator clamps to retained
	// history (min(window, uptime)), instead of diluting the ratio over
	// slow-window seconds the process never lived through.
	s, reg, _ := newTestSampler(t, rateSLO())
	bad := reg.Counter("bad_seconds_total", "stall seconds")
	for sec := 0; sec < 4; sec++ {
		bad.Add(1)
		s.Step(at(sec))
	}
	st := s.States()[0]
	// Ratio ~1.0 against a 0.1 budget = burn ~10 on BOTH windows, even
	// though only 3 of the slow window's 20 seconds exist yet.
	if st.BurnSlow < 6 || st.BurnFast < 6 {
		t.Errorf("young-process burns = %.2f/%.2f (fast/slow), want both >= 6", st.BurnFast, st.BurnSlow)
	}
	if got := s.State("stall"); got != StatePage {
		t.Errorf("young process under full stall: state = %v, want page", got)
	}
}

// TestCodeBuiltSLOTakesDefaultsForNonFiniteFields: an SLO built in code
// (Config.SLOs), which ParseSLOs never sees, with a NaN or infinite
// budget or burn takes that field's default, so a full stall pages it.
func TestCodeBuiltSLOTakesDefaultsForNonFiniteFields(t *testing.T) {
	for _, field := range []string{"budget", "warn", "page"} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			slo := rateSLO()
			switch field {
			case "budget":
				slo.Budget = v
			case "warn":
				slo.WarnBurn = v
			case "page":
				slo.PageBurn = v
			}
			s, reg, _ := newTestSampler(t, slo)
			bad := reg.Counter("bad_seconds_total", "stall seconds")
			for sec := 0; sec < 15; sec++ {
				bad.Add(1)
				s.Step(at(sec))
			}
			if got, st := s.State("stall"), s.States()[0]; got != StatePage {
				t.Errorf("%s %v: state %v at burns %v/%v under a full stall, want page", field, v, got, st.BurnFast, st.BurnSlow)
			}
		}
	}
}

func TestFlapDampingHoldsStateThroughBlips(t *testing.T) {
	slo := rateSLO()
	slo.ClearAfter = 3
	s, reg, _ := newTestSampler(t, slo)
	bad := reg.Counter("bad_seconds_total", "stall seconds")

	sec := 0
	step := func(badPerSec float64) {
		bad.Add(badPerSec)
		s.Step(at(sec))
		sec++
	}
	for i := 0; i < 25; i++ {
		step(0)
	}
	for i := 0; i < 15; i++ {
		step(1)
	}
	if s.State("stall") != StatePage {
		t.Fatalf("setup: not paged")
	}
	before := s.States()[0].Transitions

	// A flapping source: one or two clean evaluations between dirty ones.
	// The clear streak never reaches ClearAfter, so the state must hold at
	// page with NO transitions, instead of oscillating page→ok→page.
	for i := 0; i < 12; i++ {
		if i%3 == 2 {
			step(2) // dirty again before the streak completes
		} else {
			step(0)
		}
		if got := s.State("stall"); got != StatePage {
			t.Fatalf("flap step %d: state = %v, want page held by hysteresis", i, got)
		}
	}
	if after := s.States()[0].Transitions; after != before {
		t.Errorf("transitions moved %d -> %d during flapping, want unchanged", before, after)
	}

	// A real recovery: the fast window holds the last blip for its full
	// 10s span (during which the state steps down only to warn), and once
	// it drains the remaining drop to ok needs ClearAfter clean evals.
	for i := 0; i < 16; i++ {
		step(0)
	}
	if got := s.State("stall"); got != StateOK {
		t.Errorf("after full drain + ClearAfter: state = %v, want ok", got)
	}
}

func TestQuantileSLO(t *testing.T) {
	slo := SLO{
		Name: "p99", Kind: SLOQuantile, Metric: "lat_seconds",
		Threshold: 0.5, Quantile: 0.99,
		FastWindow: 5 * time.Second, SlowWindow: 10 * time.Second,
		WarnBurn: 1, PageBurn: 2, ClearAfter: 2,
	}
	s, reg, _ := newTestSampler(t, slo)
	h := reg.Histogram("lat_seconds", "latency", []float64{0.1, 0.5, 1, 2})

	sec := 0
	step := func(fast, slow int) {
		for i := 0; i < fast; i++ {
			h.Observe(0.05)
		}
		for i := 0; i < slow; i++ {
			h.Observe(1.5)
		}
		s.Step(at(sec))
		sec++
	}
	for i := 0; i < 12; i++ {
		step(100, 0)
	}
	if got := s.State("p99"); got != StateOK {
		t.Fatalf("fast traffic: state = %v, want ok", got)
	}
	// Tail blowup: 5% of requests at 1.5s pushes p99 past 2x the 0.5s
	// ceiling in both windows.
	for i := 0; i < 12; i++ {
		step(95, 5)
	}
	if got := s.State("p99"); got != StatePage {
		st := s.States()[0]
		t.Fatalf("tail blowup: state = %v (burns %.2f/%.2f, value %.3f), want page",
			got, st.BurnFast, st.BurnSlow, st.Value)
	}
	if st := s.States()[0]; st.Value <= 0.5 {
		t.Errorf("status value = %v, want the estimated p99 > 0.5", st.Value)
	}
}

func TestFloorSLONoDataHoldsOK(t *testing.T) {
	slo := SLO{
		Name: "floor", Kind: SLOFloor, Metric: "pspnr_db",
		Threshold: 30, Budget: 0.1,
		FastWindow: 5 * time.Second, SlowWindow: 10 * time.Second,
		WarnBurn: 1, PageBurn: 2,
	}
	s, reg, _ := newTestSampler(t, slo)
	// The metric never appears: the SLO holds at ok and reports no data.
	for i := 0; i < 5; i++ {
		s.Step(at(i))
	}
	st := s.States()[0]
	if st.State != "ok" || st.HasData {
		t.Errorf("absent metric: status = %+v, want ok with has_data=false", st)
	}
	// Then it appears below the floor and the SLO reacts.
	g := reg.Gauge("pspnr_db", "quality")
	for i := 5; i < 20; i++ {
		g.Set(20)
		s.Step(at(i))
	}
	if got := s.State("floor"); got != StatePage {
		t.Errorf("sustained floor violation: state = %v, want page", got)
	}
}

func TestParseSLOs(t *testing.T) {
	if slos, err := ParseSLOs(""); err != nil || slos != nil {
		t.Errorf(`ParseSLOs("") = %v, %v; want nil, nil`, slos, err)
	}
	slos, err := ParseSLOs("default")
	if err != nil || len(slos) != len(DefaultSLOs()) {
		t.Fatalf(`ParseSLOs("default") = %d SLOs, %v`, len(slos), err)
	}

	slos, err = ParseSLOs("rebuffer<=0.02;edge_hit=off")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]SLO{}
	for _, s := range slos {
		names[s.Name] = s
	}
	if _, ok := names["edge_hit"]; ok {
		t.Errorf("edge_hit=off left the SLO in the set")
	}
	if got := names["rebuffer"].Budget; got != 0.02 {
		t.Errorf("rebuffer budget = %v, want 0.02", got)
	}

	slos, err = ParseSLOs("pspnr_floor>=40, tile_p99<=0.3@30s/5m!2/6")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range slos {
		switch s.Name {
		case "pspnr_floor":
			if s.Threshold != 40 {
				t.Errorf("pspnr_floor threshold = %v, want 40", s.Threshold)
			}
		case "tile_p99":
			if s.Threshold != 0.3 || s.FastWindow != 30*time.Second ||
				s.SlowWindow != 5*time.Minute || s.WarnBurn != 2 || s.PageBurn != 6 {
				t.Errorf("tile_p99 = %+v, want 0.3 @30s/5m !2/6", s)
			}
		}
	}

	for _, bad := range []string{
		"bogus<=1",              // unknown SLO
		"pspnr_floor<=40",       // floors take >=
		"tile_p99>=0.3",         // ceilings take <=
		"rebuffer",              // no operator
		"rebuffer<=x",           // non-numeric bound
		"rebuffer<=0.05@5m/30s", // slow < fast
		"rebuffer<=0.05!6/2",    // page < warn
		"rebuffer=off;pspnr_floor=off;tile_p99=off;edge_hit=off;abort=off;failover_p99=off;breaker_open=off;hedge_rate=off", // nothing left
	} {
		if _, err := ParseSLOs(bad); err == nil {
			t.Errorf("ParseSLOs(%q) accepted, want error", bad)
		}
	}
}

// TestParseSLOsRejectsSilencingValues: each of these values used to
// parse into an SLO that could never alert (a NaN or infinite budget,
// bound or burn, a budget at or below 0, a quantile ceiling of 0).
func TestParseSLOsRejectsSilencingValues(t *testing.T) {
	for _, c := range []struct{ spec, slo string }{
		{"rebuffer<=NaN", "rebuffer"},
		{"rebuffer<=Inf", "rebuffer"},
		{"rebuffer<=0.05!NaN/NaN", "rebuffer"},
		{"rebuffer<=0.05!1/Inf", "rebuffer"},
		{"pspnr_floor>=NaN", "pspnr_floor"},
		{"pspnr_floor>=-Inf", "pspnr_floor"},
		{"rebuffer<=-3", "rebuffer"},
		{"rebuffer<=0", "rebuffer"},
		{"tile_p99<=0", "tile_p99"},
	} {
		_, err := ParseSLOs(c.spec)
		if err == nil || !strings.Contains(err.Error(), c.slo) {
			t.Errorf("ParseSLOs(%q) = %v, want an error naming %s", c.spec, err, c.slo)
		}
	}
}

// FuzzParseSLOs: ParseSLOs never panics, and every SLO it accepts can
// alert — finite fields, a budget (a quantile's ceiling) above 0,
// 0 < warn <= page and 0 < fast <= slow windows.
func FuzzParseSLOs(f *testing.F) {
	f.Add("rebuffer<=0.02@30s/5m!2/6;edge_hit=off")
	f.Fuzz(func(t *testing.T, spec string) {
		slos, err := ParseSLOs(spec)
		if err != nil {
			return
		}
		for _, s := range slos {
			d := s.withDefaults()
			for _, v := range []float64{s.Threshold, s.Budget, s.Quantile, s.WarnBurn, s.PageBurn} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("ParseSLOs(%q): %s has a non-finite field: %+v", spec, s.Name, s)
				}
			}
			bound := s.Budget
			if s.Kind == SLOQuantile {
				bound = s.Threshold
			}
			if !(bound > 0) || !(0 < s.WarnBurn && s.WarnBurn <= s.PageBurn) ||
				!(0 < d.FastWindow && d.FastWindow <= d.SlowWindow) {
				t.Fatalf("ParseSLOs(%q): %s cannot alert: %+v", spec, s.Name, s)
			}
		}
	})
}

func TestDefaultSLOsShape(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range DefaultSLOs() {
		if s.Name == "" || s.Metric == "" {
			t.Errorf("SLO missing name or metric: %+v", s)
		}
		if seen[s.Name] {
			t.Errorf("duplicate SLO name %q", s.Name)
		}
		seen[s.Name] = true
		if s.Guards == "" {
			t.Errorf("SLO %s has no Guards annotation (paper-claim map)", s.Name)
		}
		for _, m := range s.metrics() {
			if !strings.HasPrefix(m, "pano_") {
				t.Errorf("SLO %s watches non-pano metric %q", s.Name, m)
			}
		}
	}
	if !seen["rebuffer"] || !seen["pspnr_floor"] || !seen["tile_p99"] || !seen["edge_hit"] || !seen["abort"] {
		t.Errorf("default set missing a required objective: %v", seen)
	}
}

func TestNilSamplerIsNoOp(t *testing.T) {
	var s *Sampler
	s.Start()
	s.Step(at(0))
	s.Stop()
	if s.States() != nil || s.Store() != nil || s.State("x") != StateOK || s.Interval() != 0 {
		t.Errorf("nil sampler leaked state")
	}
	if got := New(Config{}); got != nil {
		t.Errorf("New without a registry = %v, want nil", got)
	}
}

func TestStopIdempotentAndUnstarted(t *testing.T) {
	s, _, _ := newTestSampler(t, rateSLO())
	s.Stop() // never started: must not hang
	s.Stop() // and again

	s2, _, _ := newTestSampler(t, rateSLO())
	s2.Start()
	s2.Start() // idempotent
	s2.Stop()
	s2.Stop()
}
