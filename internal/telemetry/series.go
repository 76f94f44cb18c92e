package telemetry

import (
	"sort"
	"sync"
	"time"

	"pano/internal/obs"
)

// Point is one windowed sample of a series.
type Point struct {
	T time.Time `json:"t"`
	V float64   `json:"v"`
}

// windowStart returns the index of the newest sample taken at or before
// t among n samples in ascending time order, found by binary search;
// when every one is newer it is 0, the oldest (the window is clamped to
// available history, so a young process evaluates its slow window over
// whatever it has — standard burn-rate behaviour).
func windowStart(n int, t time.Time, at func(i int) time.Time) int {
	return max(0, sort.Search(n, func(i int) bool { return at(i).After(t) })-1)
}

// SeriesKind distinguishes how a windowed series is interpreted.
type SeriesKind int

const (
	// GaugeSeries samples are instantaneous values.
	GaugeSeries SeriesKind = iota
	// CounterSeries samples are the source counter's cumulative value;
	// rates and window deltas are derived between samples.
	CounterSeries
)

// Series is one counter or gauge metric's windowed history. Name,
// Labels, and Kind are immutable after creation; the ring is guarded by
// mu, shared with the owning Store's Observe, so holding a *Series
// across scrapes and reading it concurrently is safe.
type Series struct {
	Name   string
	Labels []obs.Label
	Kind   SeriesKind
	mu     sync.RWMutex
	ring   *obs.Ring[Point]
}

func (s *Series) add(p Point) {
	s.mu.Lock()
	s.ring.Push(p)
	s.mu.Unlock()
}

// Points returns the retained samples, oldest first.
func (s *Series) Points() []Point {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ring.All()
}

// Last returns the most recent sample (false when empty).
func (s *Series) Last() (Point, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ring.Newest()
}

// Oldest returns the oldest retained sample (false when empty).
func (s *Series) Oldest() (Point, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ring.Oldest()
}

// DeltaSince returns the counter increase over [t, latest]; gauges
// return the difference of endpoint samples. False when fewer than one
// sample is retained.
func (s *Series) DeltaSince(t time.Time) (float64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := s.ring.Len()
	if n == 0 {
		return 0, false
	}
	first := s.ring.At(windowStart(n, t, func(i int) time.Time { return s.ring.At(i).T }))
	last := s.ring.At(n - 1)
	d := last.V - first.V
	if s.Kind == CounterSeries && d < 0 {
		// Source restarted (counter reset): count from zero.
		d = last.V
	}
	return d, true
}

// histSnap is one scrape of a histogram's cumulative state.
type histSnap struct {
	t      time.Time
	counts []uint64 // per-bucket incl +Inf last, cumulative since process start
	count  uint64
	sum    float64
}

// HistSeries is one histogram metric's windowed bucket history. Name,
// Labels, and Uppers are immutable after creation; the snapshot ring is
// guarded by mu, shared with the owning Store's Observe, so holding a
// *HistSeries across scrapes and reading it concurrently is safe.
type HistSeries struct {
	Name   string
	Labels []obs.Label
	Uppers []float64
	mu     sync.RWMutex
	snaps  *obs.Ring[histSnap]
}

func (h *HistSeries) add(s histSnap) {
	h.mu.Lock()
	h.snaps.Push(s)
	h.mu.Unlock()
}

// deltaSince returns per-bucket count deltas (and total-count delta)
// over [t, latest], clamped to available history.
func (h *HistSeries) deltaSince(t time.Time) (counts []uint64, n uint64, ok bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	k := h.snaps.Len()
	if k == 0 {
		return nil, 0, false
	}
	last := h.snaps.At(k - 1)
	first := h.snaps.At(windowStart(k, t, func(i int) time.Time { return h.snaps.At(i).t }))
	if last.count < first.count || len(last.counts) != len(first.counts) {
		// Reset: treat the latest cumulative state as the delta.
		return append([]uint64(nil), last.counts...), last.count, true
	}
	counts = make([]uint64, len(last.counts))
	for i := range counts {
		if last.counts[i] >= first.counts[i] {
			counts[i] = last.counts[i] - first.counts[i]
		}
	}
	return counts, last.count - first.count, true
}

// QuantileSince estimates the q-quantile of observations made during
// [t, latest] by interpolating the windowed bucket deltas.
func (h *HistSeries) QuantileSince(q float64, t time.Time) (float64, bool) {
	counts, n, ok := h.deltaSince(t)
	if !ok || n == 0 {
		return 0, false
	}
	return obs.HistogramQuantile(q, h.Uppers, counts), true
}

// Store is the in-process time-series database: every registry series,
// sampled on a fixed interval into fixed-size rings. All methods are
// safe for concurrent use.
type Store struct {
	mu     sync.RWMutex
	capN   int
	series map[string]*Series     // key: name + "\xff" + labelKey
	hists  map[string]*HistSeries // same keying
	byName map[string][]string    // family name -> series keys, insertion order
}

// NewStore returns a store retaining capN samples per series.
func NewStore(capN int) *Store {
	if capN <= 0 {
		capN = 360
	}
	return &Store{
		capN:   capN,
		series: make(map[string]*Series),
		hists:  make(map[string]*HistSeries),
		byName: make(map[string][]string),
	}
}

// Observe records one registry snapshot taken at time t.
func (st *Store) Observe(t time.Time, snap []obs.SnapshotSeries) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, ss := range snap {
		key := ss.Name + "\xff" + ss.Key
		switch ss.Type {
		case "histogram":
			h := st.hists[key]
			if h == nil {
				h = &HistSeries{
					Name: ss.Name, Labels: ss.Labels, Uppers: ss.Uppers,
					snaps: obs.NewRing[histSnap](st.capN),
				}
				st.hists[key] = h
				st.byName[ss.Name] = append(st.byName[ss.Name], key)
			}
			h.add(histSnap{
				t: t, counts: append([]uint64(nil), ss.Counts...),
				count: ss.Count, sum: ss.Sum,
			})
		default:
			s := st.series[key]
			if s == nil {
				kind := GaugeSeries
				if ss.Type == "counter" {
					kind = CounterSeries
				}
				s = &Series{Name: ss.Name, Labels: ss.Labels, Kind: kind, ring: obs.NewRing[Point](st.capN)}
				st.series[key] = s
				st.byName[ss.Name] = append(st.byName[ss.Name], key)
			}
			s.add(Point{T: t, V: ss.Value})
		}
	}
}

// Family returns every counter/gauge series of one metric name.
func (st *Store) Family(name string) []*Series {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var out []*Series
	for _, k := range st.byName[name] {
		if s := st.series[k]; s != nil {
			out = append(out, s)
		}
	}
	return out
}

// HistFamily returns every histogram series of one metric name.
func (st *Store) HistFamily(name string) []*HistSeries {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var out []*HistSeries
	for _, k := range st.byName[name] {
		if h := st.hists[k]; h != nil {
			out = append(out, h)
		}
	}
	return out
}

// Names returns every stored family name, sorted.
func (st *Store) Names() []string {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]string, 0, len(st.byName))
	for n := range st.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns how many distinct series the store holds.
func (st *Store) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.series) + len(st.hists)
}

// EarliestSample returns the oldest retained sample time across every
// counter/gauge series of the named families (false when none has
// data). SLO burn rates use it to clamp wall-time denominators to the
// history a young process has actually lived through.
func (st *Store) EarliestSample(names []string) (time.Time, bool) {
	var earliest time.Time
	var ok bool
	for _, name := range names {
		for _, s := range st.Family(name) {
			if p, has := s.Oldest(); has && (!ok || p.T.Before(earliest)) {
				earliest, ok = p.T, true
			}
		}
	}
	return earliest, ok
}

// labelsMatch reports whether ls has key with one of the wanted values
// (an empty key matches everything).
func labelsMatch(ls []obs.Label, key string, vals []string) bool {
	if key == "" {
		return true
	}
	for _, l := range ls {
		if l.Key != key {
			continue
		}
		for _, v := range vals {
			if l.Value == v {
				return true
			}
		}
		return false
	}
	return false
}

// DeltaSum sums the window delta over every series of the named
// families whose labels match (key, vals); ok reports whether any
// matching series had data.
func (st *Store) DeltaSum(names []string, key string, vals []string, since time.Time) (sum float64, ok bool) {
	for _, name := range names {
		for _, s := range st.Family(name) {
			if !labelsMatch(s.Labels, key, vals) {
				continue
			}
			if d, has := s.DeltaSince(since); has {
				sum += d
				ok = true
			}
		}
	}
	return sum, ok
}

// ViolationFrac returns the fraction of retained samples in [since,
// now] that violate a threshold (below floor when above is false, above
// ceiling when true), pooled across the named gauge families.
func (st *Store) ViolationFrac(names []string, since time.Time, threshold float64, above bool) (frac float64, n int) {
	var bad int
	for _, name := range names {
		for _, s := range st.Family(name) {
			s.mu.RLock()
			r := s.ring
			for i := sort.Search(r.Len(), func(i int) bool { return !r.At(i).T.Before(since) }); i < r.Len(); i++ {
				n++
				if v := r.At(i).V; (above && v > threshold) || (!above && v < threshold) {
					bad++
				}
			}
			s.mu.RUnlock()
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(bad) / float64(n), n
}

// QuantileMax estimates the windowed q-quantile of each named histogram
// family (bucket deltas merged across a family's series) and returns
// the worst (highest) across families — the conservative read when
// client- and server-side latency families coexist in one registry.
func (st *Store) QuantileMax(names []string, q float64, since time.Time) (v float64, ok bool) {
	for _, name := range names {
		hs := st.HistFamily(name)
		if len(hs) == 0 {
			continue
		}
		// Merge bucket deltas across the family's label sets (one bucket
		// layout per family by construction of obs.Registry).
		var merged []uint64
		var total uint64
		uppers := hs[0].Uppers
		for _, h := range hs {
			counts, n, has := h.deltaSince(since)
			if !has || len(counts) != len(uppers)+1 {
				continue
			}
			if merged == nil {
				merged = make([]uint64, len(counts))
			}
			for i, c := range counts {
				merged[i] += c
			}
			total += n
		}
		if total == 0 {
			continue
		}
		if fv := obs.HistogramQuantile(q, uppers, merged); !ok || fv > v {
			v, ok = fv, true
		}
	}
	return v, ok
}
