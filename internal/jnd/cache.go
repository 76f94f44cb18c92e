package jnd

import (
	"container/list"
	"sync"

	"pano/internal/frame"
	"pano/internal/geom"
	"pano/internal/obs"
)

// FieldKey identifies one cached content-JND field: the chunk (or
// frame) the pixels came from, plus the rectangle the field covers.
// Chunk is caller-defined content identity — e.g. "video/frame123" —
// and must change whenever the underlying pixels do, because the cache
// never inspects the frame.
type FieldKey struct {
	Chunk string
	Rect  geom.Rect
}

// FieldCache is a size-bounded, concurrency-safe LRU cache of
// content-JND fields. Repeated TilePMSE calls during
// adaptation hit the same (chunk, rect) pairs over and over — C(i,j)
// depends only on the original pixels (§4), so recomputing it per call
// is pure waste. A nil *FieldCache is valid and computes every field
// fresh (zero overhead beyond a nil check).
//
// Cached slices are shared between callers and MUST be treated as
// read-only; scale them with quality.ScaleField (which copies) rather
// than in place.
type FieldCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used; values are *fieldEntry
	entries map[FieldKey]*list.Element

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	size      *obs.Gauge
}

type fieldEntry struct {
	key   FieldKey
	field []float64
}

// NewFieldCache returns a cache holding at most maxEntries fields
// (<= 0 selects a default of 1024). reg may be nil; when set, the
// cache registers hit/miss/eviction counters and an entry-count gauge:
//
//	pano_jnd_field_cache_hits_total
//	pano_jnd_field_cache_misses_total
//	pano_jnd_field_cache_evictions_total
//	pano_jnd_field_cache_entries
func NewFieldCache(maxEntries int, reg *obs.Registry) *FieldCache {
	if maxEntries <= 0 {
		maxEntries = 1024
	}
	c := &FieldCache{
		cap:     maxEntries,
		ll:      list.New(),
		entries: make(map[FieldKey]*list.Element),
		hits: reg.Counter("pano_jnd_field_cache_hits_total",
			"content-JND field cache hits"),
		misses: reg.Counter("pano_jnd_field_cache_misses_total",
			"content-JND field cache misses"),
		evictions: reg.Counter("pano_jnd_field_cache_evictions_total",
			"content-JND fields evicted by the LRU bound"),
		size: reg.Gauge("pano_jnd_field_cache_entries",
			"content-JND fields currently cached"),
	}
	// Without a registry the instruments come back nil (no-op); give the
	// cache private ones so Stats still reports live counts.
	if c.hits == nil {
		c.hits, c.misses, c.evictions, c.size = &obs.Counter{}, &obs.Counter{}, &obs.Counter{}, &obs.Gauge{}
	}
	return c
}

// ContentField returns the content-dependent JND field for rect r of
// orig, computing and caching it under (chunk, r) on a miss. A nil
// cache computes directly.
func (c *FieldCache) ContentField(chunk string, orig *frame.Frame, r geom.Rect) []float64 {
	if c == nil {
		return ContentField(orig, r)
	}
	key := FieldKey{Chunk: chunk, Rect: r}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		field := el.Value.(*fieldEntry).field
		c.mu.Unlock()
		c.hits.Inc()
		return field
	}
	c.mu.Unlock()

	// Compute outside the lock: fields are deterministic, so two
	// goroutines racing on the same key do redundant work at worst and
	// store identical values.
	field := ContentField(orig, r)
	c.misses.Inc()

	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		// Lost the race; keep the incumbent so all callers share one slice.
		c.ll.MoveToFront(el)
		field = el.Value.(*fieldEntry).field
	} else {
		c.entries[key] = c.ll.PushFront(&fieldEntry{key: key, field: field})
		for c.ll.Len() > c.cap {
			oldest := c.ll.Back()
			c.ll.Remove(oldest)
			delete(c.entries, oldest.Value.(*fieldEntry).key)
			c.evictions.Inc()
		}
		c.size.Set(float64(c.ll.Len()))
	}
	c.mu.Unlock()
	return field
}
