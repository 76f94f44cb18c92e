package obs

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestLabelKeyEscaping is the regression test for the series-key
// collision: the old encoding concatenated raw values with =/;
// delimiters, so {a="x;b=y"} and {a="x", b="y"} produced the same key
// and collapsed into one series.
func TestLabelKeyEscaping(t *testing.T) {
	collisions := [][2][]Label{
		{{L("a", "x;b=y")}, {L("a", "x"), L("b", "y")}},
		{{L("a", "x="), L("b", "y")}, {L("a", "x"), L("=b", "y")}},
		{{L("a", ";")}, {L("a", ""), L("", "")}},
		{{L("a", `x\;`)}, {L("a", `x\`), L("", "")}},
	}
	for _, pair := range collisions {
		k0, k1 := labelKey(pair[0]), labelKey(pair[1])
		if k0 == k1 {
			t.Errorf("labelKey collision: %v and %v both map to %q", pair[0], pair[1], k0)
		}
	}

	// The collision was observable end to end: two distinct label sets
	// incremented the same counter series.
	r := NewRegistry()
	r.Counter("x_total", "", L("a", "x;b=y")).Inc()
	r.Counter("x_total", "", L("a", "x"), L("b", "y")).Add(10)
	if got := r.CounterValue("x_total", L("a", "x;b=y")); got != 1 {
		t.Errorf("series {a=\"x;b=y\"} = %v, want 1 (collided with {a,b}?)", got)
	}
	if got := r.CounterValue("x_total", L("a", "x"), L("b", "y")); got != 10 {
		t.Errorf("series {a,b} = %v, want 10", got)
	}
	if n := len(r.Snapshot()); n != 2 {
		t.Errorf("snapshot has %d series, want 2 distinct", n)
	}
}

func TestSeriesKeyOrderInsensitive(t *testing.T) {
	a := SeriesKey(L("b", "2"), L("a", "1"))
	b := SeriesKey(L("a", "1"), L("b", "2"))
	if a != b {
		t.Errorf("SeriesKey order-sensitive: %q vs %q", a, b)
	}
}

// populate fills a registry with the nasty cases federation must
// survive: delimiter characters in values, quotes, backslashes,
// newlines, exemplars, +Inf observations, and multiple bucket layouts.
func populate(r *Registry) {
	r.Counter("pano_test_tiles_total", "tiles fetched", L("edge", "a")).Add(41)
	r.Counter("pano_test_tiles_total", "tiles fetched", L("edge", "b")).Add(3.5)
	r.Counter("pano_test_plain_total", "no labels here").Inc()
	c := r.Counter("pano_test_exemplar_total", "counter with exemplar", L("k", "v"))
	c.IncExemplar("deadbeefcafe0123")
	r.Gauge("pano_test_mean_px", "mean\nmulti-line help", L("q", `she said "hi"`)).Set(-12.75)
	r.Gauge("pano_test_nasty", "delimiters", L("a", "x;b=y"), L("c", `back\slash`), L("d", "line\nbreak")).Set(2)
	h := r.Histogram("pano_test_latency_seconds", "fetch latency", DefBuckets, L("tier", "edge"))
	for _, v := range []float64{0.001, 0.02, 0.3, 4, 99, math.Inf(1)} {
		h.Observe(v)
	}
	h.ObserveExemplar(0.25, "0123456789abcdef")
	h2 := r.Histogram("pano_test_sizes_bytes", "tile sizes", ExponentialBuckets(1024, 4, 6))
	h2.Observe(2048)
	h2.Observe(1 << 20)
}

// TestParseRoundTrip renders a populated registry and parses it back,
// requiring the parsed series to equal Snapshot (modulo the rendering
// of multi-line help as single-line).
func TestParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	populate(r)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParsePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ParsePrometheus: %v\ninput:\n%s", err, buf.String())
	}
	want := r.Snapshot()
	compareSeries(t, want, got)
}

func compareSeries(t *testing.T, want, got []SnapshotSeries) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("parsed %d series, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.Name != w.Name || g.Key != w.Key || g.Type != w.Type {
			t.Errorf("series %d: got (%s, %q, %s), want (%s, %q, %s)",
				i, g.Name, g.Key, g.Type, w.Name, w.Key, w.Type)
			continue
		}
		wantHelp := strings.ReplaceAll(w.Help, "\n", " ")
		if g.Help != wantHelp {
			t.Errorf("%s: help %q, want %q", g.Name, g.Help, wantHelp)
		}
		if len(g.Labels) != len(w.Labels) {
			t.Errorf("%s: %d labels, want %d", g.Name, len(g.Labels), len(w.Labels))
			continue
		}
		for j := range w.Labels {
			if g.Labels[j] != w.Labels[j] {
				t.Errorf("%s: label %d = %+v, want %+v", g.Name, j, g.Labels[j], w.Labels[j])
			}
		}
		if w.Type == "histogram" {
			if g.Count != w.Count || g.Sum != w.Sum {
				t.Errorf("%s: count/sum (%d, %v), want (%d, %v)", g.Name, g.Count, g.Sum, w.Count, w.Sum)
			}
			if len(g.Uppers) != len(w.Uppers) || len(g.Counts) != len(w.Counts) {
				t.Errorf("%s: bucket layout (%d uppers, %d counts), want (%d, %d)",
					g.Name, len(g.Uppers), len(g.Counts), len(w.Uppers), len(w.Counts))
				continue
			}
			for j := range w.Uppers {
				if g.Uppers[j] != w.Uppers[j] || g.Counts[j] != w.Counts[j] {
					t.Errorf("%s: bucket %d = (%v, %d), want (%v, %d)",
						g.Name, j, g.Uppers[j], g.Counts[j], w.Uppers[j], w.Counts[j])
				}
			}
			if g.Counts[len(g.Counts)-1] != w.Counts[len(w.Counts)-1] {
				t.Errorf("%s: +Inf bucket %d, want %d",
					g.Name, g.Counts[len(g.Counts)-1], w.Counts[len(w.Counts)-1])
			}
		} else if g.Value != w.Value {
			t.Errorf("%s{%s}: value %v, want %v", g.Name, g.Key, g.Value, w.Value)
		}
	}
}

// TestParseRoundTripRandom round-trips many randomized registries.
func TestParseRoundTripRandom(t *testing.T) {
	nastyVals := []string{"", "plain", `x;b=y`, `a=b`, `q"u"o`, `tr\ail\`, "nl\nnl", "=;\\\"\n", "日本語"}
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 40; iter++ {
		r := NewRegistry()
		nFam := 1 + rng.Intn(5)
		for f := 0; f < nFam; f++ {
			name := "pano_rand_" + string(rune('a'+f)) + "_total"
			nSeries := 1 + rng.Intn(4)
			for s := 0; s < nSeries; s++ {
				var labels []Label
				for l := 0; l < rng.Intn(3); l++ {
					labels = append(labels,
						L("l"+string(rune('a'+l)), nastyVals[rng.Intn(len(nastyVals))]))
				}
				switch rng.Intn(3) {
				case 0:
					c := r.Counter(name, "random counter", labels...)
					c.Add(float64(rng.Intn(1000)) / 8)
					if rng.Intn(2) == 0 {
						c.IncExemplar("abcdef0123456789")
					}
				case 1:
					r.Gauge(strings.TrimSuffix(name, "_total"), "random gauge", labels...).
						Set(rng.NormFloat64() * 100)
				case 2:
					h := r.Histogram(strings.TrimSuffix(name, "_total")+"_seconds",
						"random hist", LinearBuckets(0, 0.5, 1+rng.Intn(8)), labels...)
					for o := 0; o < rng.Intn(20); o++ {
						h.Observe(rng.ExpFloat64())
					}
					if rng.Intn(3) == 0 {
						h.Observe(math.Inf(1))
					}
				}
			}
		}
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ParsePrometheus(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("iter %d: ParsePrometheus: %v\ninput:\n%s", iter, err, buf.String())
		}
		compareSeries(t, r.Snapshot(), got)
		if t.Failed() {
			t.Fatalf("iter %d diverged; input:\n%s", iter, buf.String())
		}
	}
}

// TestWritePrometheusSeriesFixpoint checks render∘parse is the identity
// on the rendered text — the stability pano-obsd's /metrics relies on.
// Exemplars are comments the parser skips, so the fixpoint is over a
// snapshot without them.
func TestWritePrometheusSeriesFixpoint(t *testing.T) {
	r := NewRegistry()
	populate(r)
	snap := r.Snapshot()
	for i := range snap {
		snap[i].Exemplars = nil
	}
	var first bytes.Buffer
	if err := WritePrometheusSeries(&first, snap); err != nil {
		t.Fatal(err)
	}
	series, err := ParsePrometheus(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("parse of rendered series: %v\n%s", err, first.String())
	}
	var second bytes.Buffer
	if err := WritePrometheusSeries(&second, series); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Errorf("render→parse→render not a fixpoint:\nfirst:\n%s\nsecond:\n%s",
			first.String(), second.String())
	}
}

func TestParsePrometheusErrors(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"duplicate series", "x_total 1\nx_total 2\n"},
		{"duplicate labeled series", `x{a="1"} 1` + "\n" + `x{a="1"} 2` + "\n"},
		{"duplicate label key", `x{a="1",a="2"} 1` + "\n"},
		{"retyped family", "# TYPE x counter\n# TYPE x gauge\n"},
		{"bad escape", `x{a="\q"} 1` + "\n"},
		{"unterminated value", `x{a="oops} 1` + "\n"},
		{"bad value", "x one\n"},
		{"trailing garbage", "x 1 2 3\n"},
		{"bad metric name", "1x 1\n"},
		{"bad label name", `x{1a="v"} 1` + "\n"},
		{"bucket without le", "# TYPE h histogram\nh_bucket 1\nh_count 1\n"},
		{"non-cumulative histogram", "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="2"} 3` + "\n" + "h_count 5\n"},
		{"histogram without count", "# TYPE h histogram\n" + `h_bucket{le="1"} 5` + "\n"},
		{"count disagrees with inf", "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 5` + "\n" + "h_count 6\n"},
		{"count below finite buckets", "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + "h_count 3\n"},
		{"histogram sampled directly", "# TYPE h histogram\nh 1\n"},
		{"duplicate le", "# TYPE h histogram\n" +
			`h_bucket{le="1"} 2` + "\n" + `h_bucket{le="1"} 2` + "\n" + "h_count 2\n"},
		{"type after samples", "x 1\n# TYPE x counter\n"},
	}
	for _, tc := range cases {
		if _, err := ParsePrometheus(strings.NewReader(tc.input)); err == nil {
			t.Errorf("%s: no error for:\n%s", tc.name, tc.input)
		}
	}
}

func TestParsePrometheusLenient(t *testing.T) {
	input := "# a free-form comment\n" +
		"# exemplar x_total{} trace_id=\"abc\" 1\n" +
		"# TYPE x_total counter\n" +
		"x_total 4 1700000000000\n" +
		"\n" +
		"untyped_metric{a=\"1\"} 2.5\n" +
		"# TYPE inf_gauge gauge\n" +
		"inf_gauge +Inf\n"
	series, err := ParsePrometheus(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]SnapshotSeries{}
	for _, s := range series {
		byName[s.Name] = s
	}
	if s := byName["x_total"]; s.Type != "counter" || s.Value != 4 {
		t.Errorf("x_total = %+v", s)
	}
	if s := byName["untyped_metric"]; s.Type != "gauge" || s.Value != 2.5 {
		t.Errorf("untyped_metric parsed as %+v, want gauge 2.5", s)
	}
	if s := byName["inf_gauge"]; !math.IsInf(s.Value, 1) {
		t.Errorf("inf_gauge = %v, want +Inf", s.Value)
	}
}

// FuzzParsePrometheus asserts the parser never panics, and that any
// exposition it accepts reaches a render fixpoint: parse → render →
// parse → render must produce identical text both times.
func FuzzParsePrometheus(f *testing.F) {
	f.Add([]byte("# TYPE x counter\nx_total 1\n"))
	f.Add([]byte(`h_bucket{le="0.5"} 1` + "\n" + `h_bucket{le="+Inf"} 3` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		series, err := ParsePrometheus(bytes.NewReader(data))
		if err != nil {
			return
		}
		var one bytes.Buffer
		if err := WritePrometheusSeries(&one, series); err != nil {
			t.Fatalf("render of accepted input: %v", err)
		}
		again, err := ParsePrometheus(bytes.NewReader(one.Bytes()))
		if err != nil {
			t.Fatalf("reparse of own rendering failed: %v\nrendered:\n%s", err, one.String())
		}
		var two bytes.Buffer
		if err := WritePrometheusSeries(&two, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(one.Bytes(), two.Bytes()) {
			t.Fatalf("not a fixpoint:\nfirst:\n%s\nsecond:\n%s", one.String(), two.String())
		}
	})
}
