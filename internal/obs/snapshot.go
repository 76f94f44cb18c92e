package obs

import (
	"math"
	"sort"
)

// SnapshotSeries is one metric series read out of the registry at a
// point in time — the scrape surface internal/telemetry samples into
// its windowed store. Counter/gauge series carry Value; histogram
// series carry the bucket layout plus per-bucket counts.
type SnapshotSeries struct {
	Name   string
	Help   string
	Type   string // "counter", "gauge", or "histogram"
	Labels []Label
	// Key is the canonical label key (stable identity for the series
	// within its family across scrapes).
	Key string
	// Value is the current counter or gauge value (0 for histograms).
	Value float64
	// Uppers are the histogram's sorted finite bucket upper bounds.
	Uppers []float64
	// Counts are per-bucket observation counts (NOT cumulative),
	// len(Uppers)+1 with the +Inf overflow bucket last.
	Counts []uint64
	// Count and Sum are the histogram's total observations and their sum.
	Count uint64
	Sum   float64
	// Exemplars are a counter's exemplar or a histogram's per-bucket
	// ones, ordered by bucket. The exposition carries them as comments,
	// so a parsed series has none.
	Exemplars []Exemplar
}

// Snapshot reads every series in the registry. The read is per-series
// atomic (each counter/gauge/bucket is an atomic load) but not globally
// consistent — adequate for periodic scraping, where cross-series skew
// is far below the scrape interval. Families and series come out in
// sorted order so successive snapshots align. A nil registry returns
// nil.
func (r *Registry) Snapshot() []SnapshotSeries {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]*family, 0, len(names))
	for _, n := range names {
		fams = append(fams, r.fams[n])
	}
	r.mu.RUnlock()

	var out []SnapshotSeries
	for _, f := range fams {
		f.mu.RLock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			e := f.series[k]
			ss := SnapshotSeries{
				Name: f.name, Help: f.help, Type: f.typ.String(),
				Labels: e.labels, Key: k,
			}
			switch f.typ {
			case counterType:
				ss.Value = e.counter.Value()
				if ex, ok := e.counter.Exemplar(); ok {
					ss.Exemplars = []Exemplar{ex}
				}
			case gaugeType:
				ss.Value = e.gauge.Value()
			case histogramType:
				ss.Uppers, ss.Counts = e.hist.Buckets()
				ss.Count = e.hist.Count()
				ss.Sum = e.hist.Sum()
				ss.Exemplars = e.hist.Exemplars()
			}
			out = append(out, ss)
		}
		f.mu.RUnlock()
	}
	return out
}

// Buckets returns the histogram's finite upper bounds and per-bucket
// (non-cumulative) counts; the returned counts slice has one extra
// final element for the +Inf overflow bucket. Nil-safe.
func (h *Histogram) Buckets() (uppers []float64, counts []uint64) {
	if h == nil {
		return nil, nil
	}
	uppers = h.upper // immutable after construction
	counts = make([]uint64, len(h.upper)+1)
	var finite uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		counts[i] = c
		finite += c
	}
	total := h.total.Load()
	if total > finite {
		counts[len(counts)-1] = total - finite
	}
	return uppers, counts
}

// HistogramQuantile estimates the q-quantile (0 < q < 1) of a
// fixed-bucket histogram by linear interpolation within the bucket the
// rank falls in, Prometheus histogram_quantile style. counts are
// per-bucket (non-cumulative) observation counts with the +Inf overflow
// bucket last (len(uppers)+1, as returned by Histogram.Buckets; a
// same-length slice of window DELTAS works identically, which is how
// telemetry estimates windowed p99s). The lower edge of the first
// bucket is 0. When the rank lands in the +Inf bucket the highest
// finite bound is returned (the estimate saturates); an empty
// histogram returns 0.
func HistogramQuantile(q float64, uppers []float64, counts []uint64) float64 {
	if len(counts) == 0 || len(counts) != len(uppers)+1 {
		return 0
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank > next {
			cum = next
			continue
		}
		if i == len(uppers) {
			// Overflow bucket: no finite upper edge to interpolate toward.
			if len(uppers) == 0 {
				return 0
			}
			return uppers[len(uppers)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = uppers[i-1]
		}
		frac := (rank - cum) / float64(c)
		if math.IsNaN(frac) || frac < 0 {
			frac = 0
		}
		return lower + (uppers[i]-lower)*frac
	}
	if len(uppers) == 0 {
		return 0
	}
	return uppers[len(uppers)-1]
}
