package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pano_test_total", "test counter")
	c.Inc()
	c.Add(2.5)
	c.Add(-1) // ignored: counters are monotone
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	if got := r.CounterValue("pano_test_total"); got != 3.5 {
		t.Fatalf("CounterValue = %v, want 3.5", got)
	}
	g := r.Gauge("pano_test_gauge", "test gauge")
	g.Set(5)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %v, want 5", got)
	}
	// Same name+labels returns the same series.
	r.Counter("pano_test_total", "").Inc()
	if got := c.Value(); got != 4.5 {
		t.Fatalf("counter after re-get = %v, want 4.5", got)
	}
}

func TestLabelsSeparateSeries(t *testing.T) {
	r := NewRegistry()
	r.Counter("pano_req_total", "", L("code", "200")).Add(3)
	r.Counter("pano_req_total", "", L("code", "404")).Add(1)
	if got := r.CounterValue("pano_req_total", L("code", "200")); got != 3 {
		t.Fatalf("code=200: %v", got)
	}
	if got := r.CounterValue("pano_req_total", L("code", "404")); got != 1 {
		t.Fatalf("code=404: %v", got)
	}
	// Label order must not matter.
	r.Counter("pano_multi_total", "", L("a", "1"), L("b", "2")).Inc()
	if got := r.CounterValue("pano_multi_total", L("b", "2"), L("a", "1")); got != 1 {
		t.Fatalf("label order sensitivity: %v", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("pano_lat_seconds", "", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 5, 50} {
		h.Observe(v)
	}
	if got := h.Count(); got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
	if got := h.Sum(); math.Abs(got-55.55) > 1e-9 {
		t.Fatalf("sum = %v, want 55.55", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`pano_lat_seconds_bucket{le="0.1"} 1`,
		`pano_lat_seconds_bucket{le="1"} 2`,
		`pano_lat_seconds_bucket{le="10"} 3`,
		`pano_lat_seconds_bucket{le="+Inf"} 4`,
		`pano_lat_seconds_count 4`,
		"# TYPE pano_lat_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("pano_b_total", "bytes served", L("endpoint", "tile")).Add(42)
	r.Gauge("pano_a_gauge", "a gauge").Set(1.5)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Families sorted by name: pano_a_gauge before pano_b_total.
	if ai, bi := strings.Index(out, "pano_a_gauge"), strings.Index(out, "pano_b_total"); ai < 0 || bi < 0 || ai > bi {
		t.Errorf("families not sorted:\n%s", out)
	}
	for _, want := range []string{
		"# HELP pano_b_total bytes served",
		"# TYPE pano_b_total counter",
		`pano_b_total{endpoint="tile"} 42`,
		"# TYPE pano_a_gauge gauge",
		"pano_a_gauge 1.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("pano_esc_total", "", L("path", `a"b\c`+"\n")).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if want := `pano_esc_total{path="a\"b\\c\n"} 1`; !strings.Contains(b.String(), want) {
		t.Errorf("escaping: got\n%s\nwant substring %q", b.String(), want)
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("pano_name", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as gauge should panic")
		}
	}()
	r.Gauge("pano_name", "")
}

func TestNopRegistryAndInstruments(t *testing.T) {
	var r *Registry
	// Every call on the nil registry and its nil instruments must be a
	// safe no-op.
	r.Counter("x", "").Inc()
	r.Counter("x", "").Add(3)
	r.Gauge("x2", "").Set(1)
	r.Histogram("x3", "", nil).Observe(2)
	NewTimer(r.Histogram("x3", "", nil)).ObserveDuration()
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if v := r.CounterValue("x"); v != 0 {
		t.Fatalf("nop counter value %v", v)
	}
	if n := r.HistogramCount("x3"); n != 0 {
		t.Fatalf("nop histogram count %d", n)
	}
}

func TestTimerRecordsSeconds(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("pano_t_seconds", "", DefBuckets)
	tm := NewTimer(h)
	time.Sleep(2 * time.Millisecond)
	d := tm.ObserveDuration()
	if d < 2*time.Millisecond {
		t.Fatalf("elapsed %v", d)
	}
	if h.Count() != 1 || h.Sum() <= 0 {
		t.Fatalf("histogram count=%d sum=%v", h.Count(), h.Sum())
	}
}

// TestRegistryConcurrency hammers one registry from many goroutines —
// run under `go test -race` (the Makefile check target does) to verify
// the registry is data-race free.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const goroutines = 12
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			lbl := L("worker", string(rune('a'+id%4)))
			for i := 0; i < perG; i++ {
				r.Counter("pano_conc_total", "concurrent counter").Inc()
				r.Counter("pano_conc_labeled_total", "", lbl).Add(2)
				r.Gauge("pano_conc_gauge", "").Set(float64(i))
				r.Histogram("pano_conc_seconds", "", DefBuckets).Observe(float64(i) / 1000)
				if i%50 == 0 {
					var b strings.Builder
					_ = r.WritePrometheus(&b)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.CounterValue("pano_conc_total"); got != goroutines*perG {
		t.Fatalf("concurrent counter = %v, want %d", got, goroutines*perG)
	}
	var labeled float64
	for _, w := range []string{"a", "b", "c", "d"} {
		labeled += r.CounterValue("pano_conc_labeled_total", L("worker", w))
	}
	if labeled != goroutines*perG*2 {
		t.Fatalf("labeled sum = %v, want %d", labeled, goroutines*perG*2)
	}
	if got := r.HistogramCount("pano_conc_seconds"); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
}

func TestBucketHelpers(t *testing.T) {
	lin := LinearBuckets(10, 5, 3)
	if lin[0] != 10 || lin[1] != 15 || lin[2] != 20 {
		t.Fatalf("LinearBuckets = %v", lin)
	}
	exp := ExponentialBuckets(1, 10, 3)
	if exp[0] != 1 || exp[1] != 10 || exp[2] != 100 {
		t.Fatalf("ExponentialBuckets = %v", exp)
	}
}

func TestCounterExemplar(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pano_test_hedge_total", "test", L("kind", "win"))
	if _, ok := c.Exemplar(); ok {
		t.Fatal("fresh counter holds an exemplar")
	}
	c.IncExemplar("")
	if _, ok := c.Exemplar(); ok {
		t.Fatal("empty trace id must not attach an exemplar")
	}
	c.IncExemplar("aaaa")
	c.IncExemplar("bbbb")
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %v, want 3", got)
	}
	ex, ok := r.CounterExemplar("pano_test_hedge_total", L("kind", "win"))
	if !ok || ex.TraceID != "bbbb" {
		t.Fatalf("exemplar = %+v ok=%v, want last trace id bbbb", ex, ok)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# exemplar pano_test_hedge_total{kind="win"} trace_id="bbbb" 1`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("exposition missing counter exemplar line %q:\n%s", want, b.String())
	}
	// Nil counter stays no-op.
	var nilC *Counter
	nilC.IncExemplar("cccc")
	if _, ok := nilC.Exemplar(); ok {
		t.Fatal("nil counter returned an exemplar")
	}
}
