package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value dimension on a metric series.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

type metricType int

const (
	counterType metricType = iota
	gaugeType
	histogramType
)

func (t metricType) String() string {
	switch t {
	case counterType:
		return "counter"
	case gaugeType:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry is a concurrent-safe metrics registry. A nil *Registry is a
// valid no-op registry: every method on it (and on the nil instruments
// it hands out) is safe to call and does nothing, so instrumented code
// pays only a nil check when observability is disabled.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// family is all series sharing one metric name.
type family struct {
	name    string
	help    string
	typ     metricType
	buckets []float64

	mu     sync.RWMutex
	series map[string]*seriesEntry
}

type seriesEntry struct {
	labels  []Label
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// family returns (creating if needed) the family for name, enforcing
// that a metric name keeps one type for the life of the registry.
func (r *Registry) family(name, help string, typ metricType, buckets []float64) *family {
	r.mu.RLock()
	f := r.fams[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		f = r.fams[name]
		if f == nil {
			f = &family{
				name: name, help: help, typ: typ,
				buckets: buckets,
				series:  make(map[string]*seriesEntry),
			}
			r.fams[name] = f
		}
		r.mu.Unlock()
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.typ, typ))
	}
	return f
}

// entry returns (creating if needed) the series for a label set. The
// lookup key is built in a stack buffer and the map is indexed with it
// directly, so finding a series that exists allocates nothing; only
// the first use of a label set pays for the key and the sorted copy.
func (f *family) entry(labels []Label) *seriesEntry {
	var buf [128]byte
	key := appendLabelKey(buf[:0], labels)
	f.mu.RLock()
	e := f.series[string(key)]
	f.mu.RUnlock()
	if e != nil {
		return e
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if e = f.series[string(key)]; e != nil {
		return e
	}
	e = &seriesEntry{labels: sortedLabels(labels)}
	switch f.typ {
	case counterType:
		e.counter = &Counter{}
	case gaugeType:
		e.gauge = &Gauge{}
	case histogramType:
		e.hist = newHistogram(f.buckets)
	}
	f.series[string(key)] = e
	return e
}

// Counter returns the counter series for name+labels, creating it on
// first use. Help is recorded from the first registration of the name.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.family(name, help, counterType, nil).entry(labels).counter
}

// Gauge returns the gauge series for name+labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.family(name, help, gaugeType, nil).entry(labels).gauge
}

// CounterIn is Counter through a slot the caller keeps: the first call
// resolves the series — registering it exactly when the plain Counter
// call it stands for would have, so /metrics lists the same series
// after the same traffic — and every later call is one atomic load. It
// is for request paths whose label values come from a small closed set
// (an endpoint, a source, an origin index): one slot per value, always
// used with the same name and labels.
func (r *Registry) CounterIn(slot *atomic.Pointer[Counter], name, help string, labels ...Label) *Counter {
	if c := slot.Load(); c != nil || r == nil {
		return c
	}
	c := r.Counter(name, help, labels...)
	slot.Store(c)
	return c
}

// GaugeIn is Gauge through a caller-held slot; see CounterIn.
func (r *Registry) GaugeIn(slot *atomic.Pointer[Gauge], name, help string, labels ...Label) *Gauge {
	if g := slot.Load(); g != nil || r == nil {
		return g
	}
	g := r.Gauge(name, help, labels...)
	slot.Store(g)
	return g
}

// Histogram returns the histogram series for name+labels. The bucket
// upper bounds come from the first registration of the name; pass nil
// for DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	return r.family(name, help, histogramType, buckets).entry(labels).hist
}

// CounterValue reads a counter's current value for test assertions; it
// returns 0 when the series does not exist.
func (r *Registry) CounterValue(name string, labels ...Label) float64 {
	if e := r.lookup(name, labels); e != nil && e.counter != nil {
		return e.counter.Value()
	}
	return 0
}

// GaugeValue reads a gauge's current value (0 when absent).
func (r *Registry) GaugeValue(name string, labels ...Label) float64 {
	if e := r.lookup(name, labels); e != nil && e.gauge != nil {
		return e.gauge.Value()
	}
	return 0
}

// CounterSum sums every series of a counter family — the family total
// across label values (0 when the family does not exist). Useful when a
// counter gained a label (e.g. error class) but tests or dashboards
// still want the aggregate.
func (r *Registry) CounterSum(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	f := r.fams[name]
	r.mu.RUnlock()
	if f == nil || f.typ != counterType {
		return 0
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	var sum float64
	for _, e := range f.series {
		sum += e.counter.Value()
	}
	return sum
}

// HistogramCount reads a histogram's observation count (0 when absent).
func (r *Registry) HistogramCount(name string, labels ...Label) uint64 {
	if e := r.lookup(name, labels); e != nil && e.hist != nil {
		return e.hist.Count()
	}
	return 0
}

// HistogramSum reads a histogram's observation sum (0 when absent).
func (r *Registry) HistogramSum(name string, labels ...Label) float64 {
	if e := r.lookup(name, labels); e != nil && e.hist != nil {
		return e.hist.Sum()
	}
	return 0
}

func (r *Registry) lookup(name string, labels []Label) *seriesEntry {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	f := r.fams[name]
	r.mu.RUnlock()
	if f == nil {
		return nil
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.series[labelKey(labels)]
}

// Counter is a monotonically increasing float64. Nil-safe. It can hold
// one exemplar — the trace id of the most recent traced increment — so
// a rare-event counter (a hedge fired, a budget ran dry) links straight
// to the triggering trace (see IncExemplar).
type Counter struct {
	bits     atomic.Uint64
	exemplar atomic.Pointer[Exemplar]
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d (negative deltas are ignored to keep monotonicity).
func (c *Counter) Add(d float64) {
	if c == nil || d < 0 {
		return
	}
	addFloat(&c.bits, d)
}

// IncExemplar adds 1 and attaches traceID as the counter's exemplar
// (last write wins, so the exemplar always points at a recent
// triggering trace). An empty traceID degrades to a plain Inc.
func (c *Counter) IncExemplar(traceID string) {
	if c == nil {
		return
	}
	addFloat(&c.bits, 1)
	if traceID != "" {
		c.exemplar.Store(&Exemplar{Value: 1, TraceID: traceID})
	}
}

// Exemplar returns the counter's current exemplar (ok is false when it
// has none).
func (c *Counter) Exemplar() (Exemplar, bool) {
	if c == nil {
		return Exemplar{}, false
	}
	if e := c.exemplar.Load(); e != nil {
		return *e, true
	}
	return Exemplar{}, false
}

// Value returns the current value.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is an arbitrary float64. Nil-safe.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative histogram. Nil-safe. Each
// bucket can additionally hold one exemplar — the trace id of the most
// recent observation that landed in it — so a spiking latency bucket
// links straight to an offending trace (see ObserveExemplar).
type Histogram struct {
	upper     []float64 // sorted upper bounds, excluding +Inf
	counts    []atomic.Uint64
	sumBits   atomic.Uint64
	total     atomic.Uint64
	exemplars []atomic.Pointer[Exemplar] // len(upper)+1; last is +Inf
}

func newHistogram(buckets []float64) *Histogram {
	up := append([]float64(nil), buckets...)
	sort.Float64s(up)
	return &Histogram{
		upper:     up,
		counts:    make([]atomic.Uint64, len(up)),
		exemplars: make([]atomic.Pointer[Exemplar], len(up)+1),
	}
}

// bucketIndex returns the index of the bucket v falls in; len(upper)
// means the implicit +Inf bucket.
func (h *Histogram) bucketIndex(v float64) int {
	for i, ub := range h.upper {
		if v <= ub {
			return i
		}
	}
	return len(h.upper)
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if i := h.bucketIndex(v); i < len(h.upper) {
		h.counts[i].Add(1)
	}
	h.total.Add(1)
	addFloat(&h.sumBits, v)
}

// Exemplar links one histogram bucket to the trace that produced its
// most recent observation.
type Exemplar struct {
	// LE is the bucket's upper bound (+Inf for the overflow bucket).
	LE float64
	// Value is the observed sample.
	Value float64
	// TraceID is the hex trace id of the observation's trace.
	TraceID string
}

// ObserveExemplar records one sample and attaches traceID as the
// observation's exemplar in the bucket it lands in (last write wins per
// bucket, so slow buckets always point at a recent slow trace). An
// empty traceID degrades to a plain Observe.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if h == nil {
		return
	}
	i := h.bucketIndex(v)
	if i < len(h.upper) {
		h.counts[i].Add(1)
	}
	h.total.Add(1)
	addFloat(&h.sumBits, v)
	if traceID == "" {
		return
	}
	le := math.Inf(1)
	if i < len(h.upper) {
		le = h.upper[i]
	}
	h.exemplars[i].Store(&Exemplar{LE: le, Value: v, TraceID: traceID})
}

// Exemplars returns the buckets' current exemplars (only buckets that
// have one), ordered by upper bound.
func (h *Histogram) Exemplars() []Exemplar {
	if h == nil {
		return nil
	}
	var out []Exemplar
	for i := range h.exemplars {
		if e := h.exemplars[i].Load(); e != nil {
			out = append(out, *e)
		}
	}
	return out
}

// CounterExemplar reads a counter series' exemplar (ok is false when
// the series does not exist or holds none).
func (r *Registry) CounterExemplar(name string, labels ...Label) (Exemplar, bool) {
	if e := r.lookup(name, labels); e != nil && e.counter != nil {
		return e.counter.Exemplar()
	}
	return Exemplar{}, false
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// DefBuckets are latency-oriented default bounds in seconds.
var DefBuckets = []float64{.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// ExponentialBuckets returns n bounds starting at start, each factor
// times the previous.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// addFloat atomically adds d to the float64 stored as bits in u.
func addFloat(u *atomic.Uint64, d float64) {
	for {
		old := u.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if u.CompareAndSwap(old, nw) {
			return
		}
	}
}

// WritePrometheus renders every metric in Prometheus text exposition
// format: WritePrometheusSeries over a Snapshot.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return WritePrometheusSeries(w, r.Snapshot())
}

// WritePrometheusSeries renders series in Prometheus text exposition
// format (version 0.0.4) — the one writer behind every /metrics, a
// process's own registry and pano-obsd's merged cluster view alike.
// Series are grouped into families and sorted by name then label key;
// histogram Counts are re-expanded into cumulative _bucket lines with
// the +Inf bucket and _count both carrying Count. Exemplars follow
// their series as "# exemplar" comments (an OpenMetrics-style payload
// on a 0.0.4-safe line: plain-text parsers skip any # line that is not
// HELP or TYPE).
func WritePrometheusSeries(w io.Writer, series []SnapshotSeries) error {
	sorted := append([]SnapshotSeries(nil), series...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Name != sorted[j].Name {
			return sorted[i].Name < sorted[j].Name
		}
		return sorted[i].Key < sorted[j].Key
	})
	var b strings.Builder
	prev := ""
	for _, ss := range sorted {
		if ss.Name != prev {
			prev = ss.Name
			if ss.Help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", ss.Name, strings.ReplaceAll(ss.Help, "\n", " "))
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", ss.Name, ss.Type)
		}
		labels := renderLabels(ss.Labels, nil)
		if ss.Type != "histogram" {
			fmt.Fprintf(&b, "%s%s %s\n", ss.Name, labels, fmtFloat(ss.Value))
			for _, ex := range ss.Exemplars {
				fmt.Fprintf(&b, "# exemplar %s%s trace_id=%q %s\n", ss.Name, labels, ex.TraceID, fmtFloat(ex.Value))
			}
			continue
		}
		var cum uint64
		for i, ub := range ss.Uppers {
			if i < len(ss.Counts) {
				cum += ss.Counts[i]
			}
			le := Label{Key: "le", Value: fmtFloat(ub)}
			fmt.Fprintf(&b, "%s_bucket%s %d\n", ss.Name, renderLabels(ss.Labels, &le), cum)
		}
		le := Label{Key: "le", Value: "+Inf"}
		fmt.Fprintf(&b, "%s_bucket%s %d\n", ss.Name, renderLabels(ss.Labels, &le), ss.Count)
		fmt.Fprintf(&b, "%s_sum%s %s\n", ss.Name, labels, fmtFloat(ss.Sum))
		fmt.Fprintf(&b, "%s_count%s %d\n", ss.Name, labels, ss.Count)
		for _, ex := range ss.Exemplars {
			le := Label{Key: "le", Value: fmtFloat(ex.LE)}
			fmt.Fprintf(&b, "# exemplar %s_bucket%s trace_id=%q %s\n",
				ss.Name, renderLabels(ss.Labels, &le), ex.TraceID, fmtFloat(ex.Value))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func fmtFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// sortedLabels returns a copy of labels ordered by key.
func sortedLabels(labels []Label) []Label {
	return sortLabelsInto(make([]Label, 0, len(labels)), labels)
}

// sortLabelsInto appends labels to dst in key order (a stable insertion
// sort: label sets are a handful of entries, and this is the one order
// both the stored labels and the series key use).
func sortLabelsInto(dst, labels []Label) []Label {
	for _, l := range labels {
		i := len(dst)
		dst = append(dst, l)
		for ; i > 0 && dst[i-1].Key > l.Key; i-- {
			dst[i] = dst[i-1]
		}
		dst[i] = l
	}
	return dst
}

// labelKey renders a canonical map key for a label set. The '=' and
// ';' delimiters (and the escape character itself) are backslash-escaped
// inside keys and values, so label content can never collide with the
// encoding: {a="x;b=y"} and {a="x", b="y"} stay distinct series.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	return string(appendLabelKey(nil, labels))
}

// appendLabelKey appends labelKey's rendering to dst. With a stack
// buffer for dst and up to eight labels it allocates nothing.
func appendLabelKey(dst []byte, labels []Label) []byte {
	var stack [8]Label
	ls := stack[:0]
	if len(labels) > len(stack) {
		ls = make([]Label, 0, len(labels))
	}
	for _, l := range sortLabelsInto(ls, labels) {
		dst = keyEscape(dst, l.Key)
		dst = append(dst, '=')
		dst = keyEscape(dst, l.Value)
		dst = append(dst, ';')
	}
	return dst
}

func keyEscape(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\', '=', ';':
			dst = append(dst, '\\', c)
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// SeriesKey renders the canonical series key for a label set — the same
// identity Snapshot reports in SnapshotSeries.Key. Exported so layers
// that synthesize SnapshotSeries outside a registry (the telemetry
// federation rollup) key them consistently.
func SeriesKey(labels ...Label) string { return labelKey(labels) }

// renderLabels renders {k="v",...} with values escaped; extra, when
// non-nil, is appended after the series labels (used for histogram le).
func renderLabels(labels []Label, extra *Label) string {
	if len(labels) == 0 && extra == nil {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	first := true
	write := func(l Label) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	for _, l := range labels {
		write(l)
	}
	if extra != nil {
		write(*extra)
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}
