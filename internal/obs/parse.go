package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ParsePrometheus parses Prometheus text exposition (version 0.0.4, the
// dialect WritePrometheus emits) back into SnapshotSeries — the inverse
// of a registry scrape, and the foundation of /metrics federation.
//
// HELP and TYPE comment lines attach help text and a type to a family;
// any other comment line (including the "# exemplar" lines
// WritePrometheus rides along) is skipped. Histogram families are
// reassembled from their cumulative _bucket/_sum/_count expansion into
// the per-bucket non-cumulative Counts layout Snapshot uses. Families
// sampled without a TYPE line come back as gauges. Series are returned
// sorted by name then label key, matching Registry.Snapshot, so
// parse(render(snapshot)) is the identity on everything Snapshot
// reports (help newlines excepted: rendering flattens them to spaces).
//
// The parser is strict where sloppiness would corrupt federation math:
// duplicate series, duplicate label keys, malformed escapes, retyped
// families, non-monotone histogram buckets, and trailing garbage are
// all errors rather than guesses.
func ParsePrometheus(r io.Reader) ([]SnapshotSeries, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	p := &promParser{
		fams: make(map[string]*parseFamily),
	}
	for ln, line := range strings.Split(string(data), "\n") {
		if err := p.line(line); err != nil {
			return nil, fmt.Errorf("obs: parse line %d: %w", ln+1, err)
		}
	}
	return p.finish()
}

// parseFamily accumulates one metric family while scanning.
type parseFamily struct {
	name string
	help string
	typ  string // "counter", "gauge", "histogram", "untyped", "" (unseen)

	// Plain (counter/gauge/untyped) series, keyed by label key.
	order  []string
	series map[string]*parsedSeries

	// Histogram accumulators, keyed by the label key WITHOUT le.
	horder []string
	hists  map[string]*histAccum
}

type parsedSeries struct {
	labels []Label
	value  float64
}

// histAccum gathers one histogram series' cumulative exposition lines.
type histAccum struct {
	labels  []Label
	les     []float64 // finite upper bounds in line order
	cums    []uint64  // cumulative counts per finite bound
	infCum  uint64
	hasInf  bool
	sum     float64
	hasSum  bool
	count   uint64
	hasCnt  bool
	seenLEs map[string]bool
}

type promParser struct {
	order []string
	fams  map[string]*parseFamily
}

func (p *promParser) fam(name string) *parseFamily {
	f := p.fams[name]
	if f == nil {
		f = &parseFamily{
			name:   name,
			series: make(map[string]*parsedSeries),
			hists:  make(map[string]*histAccum),
		}
		p.fams[name] = f
		p.order = append(p.order, name)
	}
	return f
}

func (p *promParser) line(line string) error {
	line = strings.TrimRight(line, "\r")
	if strings.TrimSpace(line) == "" {
		return nil
	}
	if strings.HasPrefix(line, "#") {
		return p.comment(line)
	}
	return p.sample(line)
}

func (p *promParser) comment(line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 {
		return nil // bare comment
	}
	switch fields[1] {
	case "HELP":
		name := fields[2]
		if err := checkMetricName(name); err != nil {
			return err
		}
		help := ""
		if len(fields) == 4 {
			help = fields[3]
		}
		p.fam(name).help = help
	case "TYPE":
		if len(fields) != 4 {
			return fmt.Errorf("bad TYPE line %q", line)
		}
		name, typ := fields[2], strings.TrimSpace(fields[3])
		if err := checkMetricName(name); err != nil {
			return err
		}
		switch typ {
		case "counter", "gauge", "histogram", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q for %s", typ, name)
		}
		f := p.fam(name)
		if f.typ != "" && f.typ != typ {
			return fmt.Errorf("metric %s retyped from %s to %s", name, f.typ, typ)
		}
		if f.typ == "" && (len(f.order) > 0 || len(f.horder) > 0) {
			return fmt.Errorf("TYPE for %s after its samples", name)
		}
		f.typ = typ
	}
	// Any other comment (exemplars included) is skipped.
	return nil
}

// sample parses one "name{labels} value [timestamp]" line.
func (p *promParser) sample(line string) error {
	name, labels, rest, err := splitSample(line)
	if err != nil {
		return err
	}
	fields := strings.Fields(rest)
	if len(fields) != 1 && len(fields) != 2 {
		return fmt.Errorf("bad sample %q (want value [timestamp])", line)
	}
	val, err := parsePromFloat(fields[0])
	if err != nil {
		return fmt.Errorf("bad value %q: %w", fields[0], err)
	}
	if len(fields) == 2 {
		// Optional millisecond timestamp: accepted, not retained (the
		// snapshot model is point-in-time).
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return fmt.Errorf("bad timestamp %q", fields[1])
		}
	}

	// Histogram components route by suffix when the base family was
	// declared a histogram; an exact non-histogram family wins first, so
	// an independent counter named x_sum is never swallowed by a
	// histogram x.
	if f, ok := p.fams[name]; ok && f.typ != "" && f.typ != "histogram" {
		return p.plainSample(f, name, labels, val)
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base, found := strings.CutSuffix(name, suf)
		if !found {
			continue
		}
		if f, ok := p.fams[base]; ok && f.typ == "histogram" {
			return p.histSample(f, suf, labels, val, line)
		}
	}
	if f, ok := p.fams[name]; ok && f.typ == "histogram" {
		return fmt.Errorf("histogram %s sampled directly (want _bucket/_sum/_count)", name)
	}
	return p.plainSample(p.fam(name), name, labels, val)
}

func (p *promParser) plainSample(f *parseFamily, name string, labels []Label, val float64) error {
	key := labelKey(labels)
	if _, dup := f.series[key]; dup {
		return fmt.Errorf("duplicate series %s{%s}", name, key)
	}
	f.series[key] = &parsedSeries{labels: sortedLabels(labels), value: val}
	f.order = append(f.order, key)
	return nil
}

func (p *promParser) histSample(f *parseFamily, suf string, labels []Label, val float64, line string) error {
	var le string
	if suf == "_bucket" {
		rest := labels[:0]
		for _, l := range labels {
			if l.Key == "le" {
				le = l.Value
			} else {
				rest = append(rest, l)
			}
		}
		if le == "" {
			return fmt.Errorf("bucket without le label: %q", line)
		}
		labels = rest
	}
	key := labelKey(labels)
	h := f.hists[key]
	if h == nil {
		h = &histAccum{labels: sortedLabels(labels), seenLEs: make(map[string]bool)}
		f.hists[key] = h
		f.horder = append(f.horder, key)
	}
	switch suf {
	case "_bucket":
		if h.seenLEs[le] {
			return fmt.Errorf("duplicate bucket le=%q in %s", le, f.name)
		}
		h.seenLEs[le] = true
		if val < 0 || val != math.Trunc(val) || val >= float64(1<<63) {
			return fmt.Errorf("bad bucket count %v in %s", val, f.name)
		}
		if le == "+Inf" {
			h.infCum, h.hasInf = uint64(val), true
			return nil
		}
		ub, err := parsePromFloat(le)
		if err != nil || math.IsInf(ub, 0) || math.IsNaN(ub) {
			return fmt.Errorf("bad bucket bound le=%q in %s", le, f.name)
		}
		h.les = append(h.les, ub)
		h.cums = append(h.cums, uint64(val))
	case "_sum":
		if h.hasSum {
			return fmt.Errorf("duplicate _sum in %s", f.name)
		}
		h.sum, h.hasSum = val, true
	case "_count":
		if h.hasCnt {
			return fmt.Errorf("duplicate _count in %s", f.name)
		}
		if val < 0 || val != math.Trunc(val) || val >= float64(1<<63) {
			return fmt.Errorf("bad _count %v in %s", val, f.name)
		}
		h.count, h.hasCnt = uint64(val), true
	}
	return nil
}

// finish assembles the scanned families into sorted SnapshotSeries.
func (p *promParser) finish() ([]SnapshotSeries, error) {
	names := append([]string(nil), p.order...)
	sort.Strings(names)
	var out []SnapshotSeries
	for _, name := range names {
		f := p.fams[name]
		typ := f.typ
		switch typ {
		case "", "untyped":
			typ = "gauge"
		}
		keys := append([]string(nil), f.order...)
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			out = append(out, SnapshotSeries{
				Name: name, Help: f.help, Type: typ,
				Labels: s.labels, Key: k, Value: s.value,
			})
		}
		hkeys := append([]string(nil), f.horder...)
		sort.Strings(hkeys)
		for _, k := range hkeys {
			ss, err := f.hists[k].build(name, f.help, k)
			if err != nil {
				return nil, fmt.Errorf("obs: parse: %w", err)
			}
			out = append(out, ss)
		}
	}
	return out, nil
}

// build converts a histogram accumulator to the Snapshot layout:
// sorted finite uppers, per-bucket (non-cumulative) counts with the
// +Inf overflow bucket last.
func (h *histAccum) build(name, help, key string) (SnapshotSeries, error) {
	type bkt struct {
		ub  float64
		cum uint64
	}
	bs := make([]bkt, len(h.les))
	for i := range h.les {
		bs[i] = bkt{h.les[i], h.cums[i]}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].ub < bs[j].ub })
	ss := SnapshotSeries{
		Name: name, Help: help, Type: "histogram",
		Labels: h.labels, Key: key,
		Uppers: make([]float64, len(bs)),
		Counts: make([]uint64, len(bs)+1),
	}
	var prev uint64
	var finite uint64
	for i, b := range bs {
		if b.cum < prev {
			return ss, fmt.Errorf("histogram %s: bucket counts not cumulative at le=%v", name, b.ub)
		}
		ss.Uppers[i] = b.ub
		ss.Counts[i] = b.cum - prev
		finite = b.cum
		prev = b.cum
	}
	switch {
	case h.hasCnt && h.hasInf && h.count != h.infCum:
		return ss, fmt.Errorf("histogram %s: _count %d disagrees with +Inf bucket %d", name, h.count, h.infCum)
	case h.hasCnt:
		ss.Count = h.count
	case h.hasInf:
		ss.Count = h.infCum
	default:
		return ss, fmt.Errorf("histogram %s: no _count or +Inf bucket", name)
	}
	if ss.Count < finite {
		return ss, fmt.Errorf("histogram %s: total %d below finite buckets %d", name, ss.Count, finite)
	}
	ss.Counts[len(bs)] = ss.Count - finite
	ss.Sum = h.sum
	return ss, nil
}

// splitSample splits a sample line into metric name, parsed labels, and
// the remaining value text.
func splitSample(line string) (name string, labels []Label, rest string, err error) {
	i := strings.IndexAny(line, "{ \t")
	if i <= 0 {
		return "", nil, "", fmt.Errorf("bad sample %q", line)
	}
	name = line[:i]
	if err := checkMetricName(name); err != nil {
		return "", nil, "", err
	}
	rest = line[i:]
	if rest[0] == '{' {
		labels, rest, err = parseLabels(rest[1:])
		if err != nil {
			return "", nil, "", fmt.Errorf("%s: %w", name, err)
		}
	}
	return name, labels, rest, nil
}

// parseLabels consumes `k="v",...}` (the opening brace already eaten),
// returning the labels and the text after the closing brace.
func parseLabels(s string) ([]Label, string, error) {
	var labels []Label
	seen := map[string]bool{}
	for {
		s = strings.TrimLeft(s, " \t")
		if strings.HasPrefix(s, "}") {
			return labels, s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq <= 0 {
			return nil, "", fmt.Errorf("bad label set near %q", s)
		}
		key := strings.TrimSpace(s[:eq])
		if err := checkLabelName(key); err != nil {
			return nil, "", err
		}
		if seen[key] {
			return nil, "", fmt.Errorf("duplicate label %q", key)
		}
		seen[key] = true
		s = strings.TrimLeft(s[eq+1:], " \t")
		if !strings.HasPrefix(s, `"`) {
			return nil, "", fmt.Errorf("unquoted value for label %q", key)
		}
		val, tail, err := parseQuoted(s[1:])
		if err != nil {
			return nil, "", fmt.Errorf("label %q: %w", key, err)
		}
		labels = append(labels, Label{Key: key, Value: val})
		s = strings.TrimLeft(tail, " \t")
		switch {
		case strings.HasPrefix(s, ","):
			s = s[1:]
		case strings.HasPrefix(s, "}"):
			return labels, s[1:], nil
		default:
			return nil, "", fmt.Errorf("bad label separator near %q", s)
		}
	}
}

// parseQuoted consumes a label value up to its closing quote, undoing
// the \\ \n \" escapes escapeLabel applies.
func parseQuoted(s string) (val, rest string, err error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			return b.String(), s[i+1:], nil
		case '\\':
			i++
			if i >= len(s) {
				return "", "", fmt.Errorf("dangling escape")
			}
			switch s[i] {
			case '\\':
				b.WriteByte('\\')
			case 'n':
				b.WriteByte('\n')
			case '"':
				b.WriteByte('"')
			default:
				return "", "", fmt.Errorf("bad escape \\%c", s[i])
			}
		default:
			b.WriteByte(c)
		}
	}
	return "", "", fmt.Errorf("unterminated value")
}

func parsePromFloat(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

func checkMetricName(s string) error {
	if s == "" {
		return fmt.Errorf("empty metric name")
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("bad metric name %q", s)
		}
	}
	return nil
}

func checkLabelName(s string) error {
	if s == "" {
		return fmt.Errorf("empty label name")
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("bad label name %q", s)
		}
	}
	return nil
}
