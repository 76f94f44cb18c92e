package obs

import (
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// splitETagMatch is the comparison origin and edge each carried a copy
// of before ETagMatch, kept as its oracle.
func splitETagMatch(header, etag string) bool {
	if header == "" || etag == "" {
		return false
	}
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		if cand == "*" || strings.TrimPrefix(cand, "W/") == etag {
			return true
		}
	}
	return false
}

// TestETagMatch walks the If-None-Match forms of RFC 9110 §8.8.3.2 —
// "*", single and listed tags, weak prefixes on either side of the
// comparison's reach, optional whitespace, empty members — and then
// random headers assembled from the same pieces, against the old
// implementation.
func TestETagMatch(t *testing.T) {
	cases := []struct {
		header, etag string
		want         bool
	}{
		{"", `"abc"`, false},
		{`"abc"`, "", false},
		{"*", "", false},
		{"*", `"abc"`, true},
		{" * ", `"abc"`, true},
		{`"abc"`, `"abc"`, true},
		{`"abd"`, `"abc"`, false},
		{`"x"`, `"abc"`, false},
		{`abc`, `"abc"`, false}, // unquoted is another tag
		{`W/"abc"`, `"abc"`, true},
		{`w/"abc"`, `"abc"`, false}, // the weak prefix is case-sensitive
		{`W/"abc"`, `W/"abc"`, false},
		{`"x", "abc"`, `"abc"`, true},
		{`"x","abc"`, `"abc"`, true},
		{`"x" ,	W/"abc" `, `"abc"`, true},
		{`"x", "y"`, `"abc"`, false},
		{`"x", *`, `"abc"`, true},
		{`,`, `"abc"`, false},
		{`, ,"abc",`, `"abc"`, true},
		{`"ab`, `"abc"`, false},
		{`"abc""abc"`, `"abc"`, false},
		{`"a,b"`, `"a,b"`, false}, // a comma splits even inside quotes, as it always did
	}
	for _, c := range cases {
		if got := ETagMatch(c.header, c.etag); got != c.want {
			t.Errorf("ETagMatch(%q, %q) = %v, want %v", c.header, c.etag, got, c.want)
		}
		if old := splitETagMatch(c.header, c.etag); old != c.want {
			t.Errorf("oracle(%q, %q) = %v, want %v", c.header, c.etag, old, c.want)
		}
	}
	pieces := []string{`"abc"`, `W/"abc"`, `"x"`, `*`, ``, ` `, `,`, `, `, "\t", `W/`, `"`, `abc`}
	rng := rand.New(rand.NewSource(9110))
	for i := 0; i < 20000; i++ {
		var h strings.Builder
		for n := rng.Intn(6); n > 0; n-- {
			h.WriteString(pieces[rng.Intn(len(pieces))])
		}
		etag := pieces[rng.Intn(4)]
		if got, want := ETagMatch(h.String(), etag), splitETagMatch(h.String(), etag); got != want {
			t.Fatalf("ETagMatch(%q, %q) = %v, the split-based comparison says %v", h.String(), etag, got, want)
		}
	}
}

// builderLabelKey is labelKey as it was: sort a copy with sort.Slice,
// render through a strings.Builder.
func builderLabelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	esc := func(s string) {
		for i := 0; i < len(s); i++ {
			if c := s[i]; c == '\\' || c == '=' || c == ';' {
				b.WriteByte('\\')
			}
			b.WriteByte(s[i])
		}
	}
	for _, l := range ls {
		esc(l.Key)
		b.WriteByte('=')
		esc(l.Value)
		b.WriteByte(';')
	}
	return b.String()
}

// TestLabelKeyUnchanged: series keys are an identity other layers hold
// on to (SeriesKey, the federation rollup), so the stack-built key must
// be the old one byte for byte — in any argument order, past the eight
// labels the stack holds, with every escaped character.
func TestLabelKeyUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []string{"a", "b", "endpoint", "code", "=", ";", `\`, "x;y=z", "", "origin", "le", "é"}
	for i := 0; i < 5000; i++ {
		labels := make([]Label, rng.Intn(12))
		for j, k := range rng.Perm(len(alphabet))[:len(labels)] { // distinct keys
			labels[j] = L(alphabet[k], alphabet[rng.Intn(len(alphabet))]+alphabet[rng.Intn(len(alphabet))])
		}
		if got, want := labelKey(labels), builderLabelKey(labels); got != want {
			t.Fatalf("labelKey(%v) = %q, was %q", labels, got, want)
		}
		sorted := sortedLabels(labels)
		if !sort.SliceIsSorted(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key }) || len(sorted) != len(labels) {
			t.Fatalf("sortedLabels(%v) = %v", labels, sorted)
		}
	}
}

// TestCounterInRegistersOnFirstUse: a slot adds no series the inline
// call would not have added, hands out the registry's own instrument,
// and is inert on the no-op registry.
func TestCounterInRegistersOnFirstUse(t *testing.T) {
	r := NewRegistry()
	var slot atomic.Pointer[Counter]
	var gslot atomic.Pointer[Gauge]
	if len(r.Snapshot()) != 0 {
		t.Fatal("declaring a slot registered something")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.CounterIn(&slot, "pano_test_total", "help", L("endpoint", "tile")).Inc()
			}
		}()
	}
	wg.Wait()
	r.GaugeIn(&gslot, "pano_test_gauge", "help").Set(3)
	if slot.Load() != r.Counter("pano_test_total", "", L("endpoint", "tile")) || gslot.Load() != r.Gauge("pano_test_gauge", "") {
		t.Fatal("slot holds an instrument that is not the registry's")
	}
	if got := r.CounterValue("pano_test_total", L("endpoint", "tile")); got != 800 {
		t.Fatalf("counter = %v, want 800", got)
	}
	if got := r.GaugeValue("pano_test_gauge"); got != 3 {
		t.Fatalf("gauge = %v, want 3", got)
	}
	if n := len(r.Snapshot()); n != 2 {
		t.Fatalf("%d series, want 2", n)
	}

	var nop *Registry
	var s2 atomic.Pointer[Counter]
	var g2 atomic.Pointer[Gauge]
	nop.CounterIn(&s2, "pano_test_total", "help").Inc()
	nop.GaugeIn(&g2, "pano_test_gauge", "help").Set(1)
	if s2.Load() != nil || g2.Load() != nil {
		t.Fatal("the no-op registry filled a slot")
	}
}

// TestInstrumentLookupsDoNotAllocate pins what the request paths lean
// on: finding an existing labelled series builds its key on the stack,
// a slot hit is a load, and ETagMatch splits nothing.
func TestInstrumentLookupsDoNotAllocate(t *testing.T) {
	r := NewRegistry()
	code := "200"
	r.Counter("pano_test_total", "help", L("endpoint", "tile"), L("method", "GET"), L("code", code))
	r.Histogram("pano_test_seconds", "help", nil, L("endpoint", "tile"))
	var slot atomic.Pointer[Counter]
	r.CounterIn(&slot, "pano_test_total", "help", L("endpoint", "mpd"))
	for name, fn := range map[string]func(){
		"labelled Counter hit": func() {
			r.Counter("pano_test_total", "help", L("endpoint", "tile"), L("method", "GET"), L("code", code)).Inc()
		},
		"labelled Histogram hit": func() {
			r.Histogram("pano_test_seconds", "help", nil, L("endpoint", "tile")).Observe(0.1)
		},
		"CounterIn hit": func() {
			r.CounterIn(&slot, "pano_test_total", "help", L("endpoint", "mpd")).Inc()
		},
		"ETagMatch": func() {
			if !ETagMatch(`"nope", W/"5ae028810ce2658d"`, `"5ae028810ce2658d"`) || ETagMatch(`"a", "b" , "c"`, `"d"`) {
				t.Fatal("wrong answer")
			}
		},
	} {
		if n := testing.AllocsPerRun(200, fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, n)
		}
	}
}
