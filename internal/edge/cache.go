package edge

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"
)

// Entry is one cached origin response. Entries are immutable after
// insertion (the body slice is shared by every reader) except for their
// expiry, which Refresh advances under the cache lock after a 304
// revalidation.
type Entry struct {
	// Key is the request path (a server.TilePath, server.ManifestPath).
	Key string
	// Status is the origin status this entry replays: 200 for positive
	// entries, 404 (or any other definitive non-5xx answer) for negative
	// ones.
	Status int
	// Body is the exact origin body; nil only for bodyless answers.
	Body []byte
	// ETag is the origin's validator, sent back as If-None-Match when
	// the entry turns stale.
	ETag string
	// ContentType echoes the origin header.
	ContentType string
	// expiresNs is the freshness horizon and fetchedNs the last
	// fill/revalidation instant, both unix nanos. Atomic because Refresh
	// advances them while concurrent readers serve the entry.
	expiresNs atomic.Int64
	fetchedNs atomic.Int64
}

func (e *Entry) setTimes(now time.Time, ttl time.Duration) {
	e.fetchedNs.Store(now.UnixNano())
	e.expiresNs.Store(now.Add(ttl).UnixNano())
}

func (e *Entry) expires() time.Time { return time.Unix(0, e.expiresNs.Load()) }

// Age returns how long ago the entry was filled or last revalidated.
func (e *Entry) Age(now time.Time) time.Duration {
	return now.Sub(time.Unix(0, e.fetchedNs.Load()))
}

// State classifies a cache lookup.
type State int

const (
	// Miss: no usable entry (never cached, evicted, or beyond the
	// serve-stale retention window).
	Miss State = iota
	// Fresh: within TTL; serve without touching the origin.
	Fresh
	// Stale: past TTL but within the retention window; revalidate
	// against the origin, or serve as-is if the origin is faulty.
	Stale
)

func (s State) String() string {
	switch s {
	case Fresh:
		return "fresh"
	case Stale:
		return "stale"
	default:
		return "miss"
	}
}

// Cache is a byte-budgeted, concurrency-safe LRU over origin responses.
// Accounting charges body bytes plus a fixed per-entry overhead so a
// flood of tiny negative entries cannot evade the budget. Entries past
// expiry are retained (and reported Stale) for staleFor, then dropped.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	staleFor time.Duration
	used     int64
	ll       *list.List // front = most recently used; values are *Entry
	byKey    map[string]*list.Element
	// evictions counts budget-pressure removals (not TTL drops).
	evictions uint64
}

// entryOverhead approximates the per-entry bookkeeping cost charged
// against the byte budget on top of the body.
const entryOverhead = 256

// NewCache returns a cache holding at most maxBytes of accounted data.
// staleFor is the post-expiry retention window during which entries are
// still usable for revalidation and serve-stale (0 disables retention:
// expired entries read as misses).
func NewCache(maxBytes int64, staleFor time.Duration) *Cache {
	return &Cache{
		maxBytes: maxBytes,
		staleFor: staleFor,
		ll:       list.New(),
		byKey:    make(map[string]*list.Element),
	}
}

func (c *Cache) cost(e *Entry) int64 { return int64(len(e.Body)) + entryOverhead }

// Get returns the entry for key and its freshness at time now, touching
// it as most-recently-used. Entries beyond the stale retention window
// are removed and reported as a Miss.
func (c *Cache) Get(key string, now time.Time) (*Entry, State) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, Miss
	}
	e := el.Value.(*Entry)
	exp := e.expires()
	if now.After(exp.Add(c.staleFor)) {
		c.removeLocked(el)
		return nil, Miss
	}
	c.ll.MoveToFront(el)
	if now.After(exp) {
		return e, Stale
	}
	return e, Fresh
}

// Put inserts (or replaces) an entry whose freshness runs until
// now+ttl, evicting least-recently-used entries until the budget holds.
// Entries larger than the whole budget are not cached. It returns how
// many entries were evicted by the insert.
func (c *Cache) Put(e *Entry, now time.Time, ttl time.Duration) int {
	e.setTimes(now, ttl)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cost(e) > c.maxBytes {
		return 0
	}
	if el, ok := c.byKey[e.Key]; ok {
		c.removeLocked(el)
	}
	c.byKey[e.Key] = c.ll.PushFront(e)
	c.used += c.cost(e)
	evicted := 0
	for c.used > c.maxBytes {
		back := c.ll.Back()
		if back == nil {
			break
		}
		c.removeLocked(back)
		c.evictions++
		evicted++
	}
	return evicted
}

// Refresh extends key's freshness to now+ttl after a successful 304
// revalidation and reports whether the entry was still present.
func (c *Cache) Refresh(key string, now time.Time, ttl time.Duration) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return false
	}
	e := el.Value.(*Entry)
	e.setTimes(now, ttl)
	c.ll.MoveToFront(el)
	return true
}

func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*Entry)
	c.ll.Remove(el)
	delete(c.byKey, e.Key)
	c.used -= c.cost(e)
}

// Bytes returns the accounted size of the cache.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}
