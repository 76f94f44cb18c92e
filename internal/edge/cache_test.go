package edge

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

func ent(key string, n int) *Entry {
	return &Entry{Key: key, Status: 200, Body: make([]byte, n), ETag: `"` + key + `"`}
}

// TestCacheLRUEviction: inserts beyond the byte budget evict the least
// recently used entries, and a Get refreshes recency.
func TestCacheLRUEviction(t *testing.T) {
	// Budget for ~3 entries of 1 KiB + overhead.
	c := NewCache(3*(1024+entryOverhead), time.Minute)
	now := time.Now()
	for i := 0; i < 3; i++ {
		c.Put(ent(fmt.Sprintf("k%d", i), 1024), now, time.Minute)
	}
	if c.Len() != 3 {
		t.Fatalf("len %d, want 3", c.Len())
	}
	// Touch k0 so k1 is the LRU victim.
	if _, st := c.Get("k0", now); st != Fresh {
		t.Fatalf("k0 state %v", st)
	}
	if n := c.Put(ent("k3", 1024), now, time.Minute); n != 1 {
		t.Fatalf("evicted %d entries, want 1", n)
	}
	if _, st := c.Get("k1", now); st != Miss {
		t.Error("k1 should have been the LRU victim")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, st := c.Get(k, now); st != Fresh {
			t.Errorf("%s evicted unexpectedly (state %v)", k, st)
		}
	}
	if c.Evictions() != 1 {
		t.Errorf("evictions %d, want 1", c.Evictions())
	}
	if c.Bytes() > 3*(1024+entryOverhead) {
		t.Errorf("cache over budget: %d bytes", c.Bytes())
	}
}

// TestCacheByteBudgetPressure: a large insert may evict several small
// entries, and an entry bigger than the whole budget is not cached.
func TestCacheByteBudgetPressure(t *testing.T) {
	c := NewCache(8<<10, time.Minute)
	now := time.Now()
	for i := 0; i < 8; i++ {
		c.Put(ent(fmt.Sprintf("s%d", i), 512), now, time.Minute)
	}
	before := c.Len()
	c.Put(ent("big", 6<<10), now, time.Minute)
	if c.Bytes() > 8<<10 {
		t.Errorf("over budget after large insert: %d", c.Bytes())
	}
	if c.Len() >= before+1 {
		t.Errorf("large insert evicted nothing (len %d -> %d)", before, c.Len())
	}
	c.Put(ent("huge", 16<<10), now, time.Minute)
	if _, st := c.Get("huge", now); st != Miss {
		t.Error("entry larger than the budget must not be cached")
	}
}

// TestCacheTTLExpiry: entries go fresh → stale → gone as time passes.
func TestCacheTTLExpiry(t *testing.T) {
	c := NewCache(1<<20, 500*time.Millisecond) // staleFor
	t0 := time.Now()
	c.Put(ent("k", 64), t0, 100*time.Millisecond)

	if _, st := c.Get("k", t0.Add(50*time.Millisecond)); st != Fresh {
		t.Fatalf("within TTL: state %v, want Fresh", st)
	}
	e, st := c.Get("k", t0.Add(200*time.Millisecond))
	if st != Stale || e == nil {
		t.Fatalf("past TTL within staleFor: state %v, want Stale", st)
	}
	if _, st := c.Get("k", t0.Add(time.Second)); st != Miss {
		t.Fatalf("past staleFor: state %v, want Miss", st)
	}
	if c.Len() != 0 {
		t.Error("fully expired entry should be dropped on Get")
	}
}

// TestCacheRefresh: a 304 revalidation extends freshness without
// reinserting the body.
func TestCacheRefresh(t *testing.T) {
	c := NewCache(1<<20, time.Minute)
	t0 := time.Now()
	c.Put(ent("k", 64), t0, 100*time.Millisecond)
	t1 := t0.Add(200 * time.Millisecond)
	if _, st := c.Get("k", t1); st != Stale {
		t.Fatalf("state %v, want Stale", st)
	}
	if !c.Refresh("k", t1, time.Minute) {
		t.Fatal("Refresh lost the entry")
	}
	if _, st := c.Get("k", t1.Add(30*time.Second)); st != Fresh {
		t.Errorf("after refresh: state %v, want Fresh", st)
	}
	if c.Refresh("gone", t1, time.Minute) {
		t.Error("Refresh of a missing key reported true")
	}
}

// TestCacheNegativeEntry: non-200 entries cache like any other (the
// proxy gives them a shorter TTL).
func TestCacheNegativeEntry(t *testing.T) {
	c := NewCache(1<<20, time.Minute)
	now := time.Now()
	neg := &Entry{Key: "/video/999/0/0.bin", Status: 404, Body: []byte("404 page not found\n")}
	c.Put(neg, now, 5*time.Second)
	e, st := c.Get(neg.Key, now.Add(time.Second))
	if st != Fresh || e.Status != 404 {
		t.Fatalf("negative entry: state %v status %d", st, e.Status)
	}
}

// TestCacheReplace: re-putting a key replaces the old body in the
// accounting.
func TestCacheReplace(t *testing.T) {
	c := NewCache(1<<20, time.Minute)
	now := time.Now()
	c.Put(ent("k", 1000), now, time.Minute)
	c.Put(ent("k", 10), now, time.Minute)
	if c.Len() != 1 {
		t.Fatalf("len %d, want 1", c.Len())
	}
	if got := c.Bytes(); got != 10+entryOverhead {
		t.Errorf("bytes %d, want %d", got, 10+entryOverhead)
	}
}

// refCache is the model the cache is checked against: a map of entries
// with their accounted cost and times, and their recency as a list of
// keys, most recent first.
type refCache struct {
	max, used int64
	staleFor  time.Duration
	entries   map[string]refEntry
	order     []string
}

type refEntry struct {
	cost    int64
	expires time.Time
}

// touch makes key the most recent.
func (r *refCache) touch(key string) {
	r.order = append([]string{key}, slices.DeleteFunc(r.order, func(k string) bool { return k == key })...)
}

func (r *refCache) drop(key string) {
	if e, ok := r.entries[key]; ok {
		r.order = slices.DeleteFunc(r.order, func(k string) bool { return k == key })
		r.used -= e.cost
		delete(r.entries, key)
	}
}

func (r *refCache) put(key string, cost int64, now time.Time, ttl time.Duration) int {
	if cost > r.max {
		return 0
	}
	r.drop(key)
	r.entries[key] = refEntry{cost: cost, expires: now.Add(ttl)}
	r.touch(key)
	r.used += cost
	evicted := 0
	for r.used > r.max {
		r.drop(r.order[len(r.order)-1])
		evicted++
	}
	return evicted
}

func (r *refCache) get(key string, now time.Time) State {
	e, ok := r.entries[key]
	switch {
	case !ok:
		return Miss
	case now.After(e.expires.Add(r.staleFor)):
		r.drop(key)
		return Miss
	}
	r.touch(key)
	if now.After(e.expires) {
		return Stale
	}
	return Fresh
}

// TestCacheMatchesModel drives the cache and refCache with one random
// sequence of Put, Get and Refresh — bodies up to, at and past the
// whole budget, reads at an entry's expiry and at the end of its stale
// window, each to the nanosecond — and checks after every step that
// they answer alike, that the accounted bytes agree, and that Bytes()
// never exceeds the budget.
func TestCacheMatchesModel(t *testing.T) {
	const maxBytes = 8 * (512 + entryOverhead)
	const staleFor = 3 * time.Second
	c := NewCache(maxBytes, staleFor)
	ref := &refCache{max: maxBytes, staleFor: staleFor, entries: map[string]refEntry{}}
	rng := rand.New(rand.NewSource(14))
	now := time.Unix(1_700_000_000, 0)
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}
	bodies := []int{0, 1, 511, 512, 513, 2000, maxBytes - entryOverhead, maxBytes - entryOverhead + 1}
	for step := 0; step < 20000; step++ {
		key := keys[rng.Intn(len(keys))]
		now = now.Add(time.Duration(rng.Intn(300)) * time.Millisecond)
		var what string
		switch op := rng.Intn(10); {
		case op < 4:
			n := bodies[rng.Intn(len(bodies))]
			if rng.Intn(2) == 0 {
				n = rng.Intn(3000)
			}
			ttl := time.Duration(rng.Intn(4000)) * time.Millisecond
			got, want := c.Put(ent(key, n), now, ttl), ref.put(key, int64(n)+entryOverhead, now, ttl)
			what = fmt.Sprintf("Put(%s, %d B, ttl %v) evicted %d, model %d", key, n, ttl, got, want)
			if got != want {
				t.Fatalf("step %d: %s", step, what)
			}
			if n+entryOverhead <= maxBytes {
				if _, st := c.Get(key, now); st != Fresh || ref.get(key, now) != Fresh {
					t.Fatalf("step %d: %s: the entry just put reads %v", step, what, st)
				}
			}
		case op < 9:
			// At an entry's expiry or the end of its stale window, or a
			// nanosecond either side.
			if e, ok := ref.entries[key]; ok && rng.Intn(2) == 0 {
				edge := e.expires
				if rng.Intn(2) == 0 {
					edge = edge.Add(staleFor)
				}
				if at := edge.Add(time.Duration(rng.Intn(3)-1) * time.Nanosecond); !at.Before(now) {
					now = at
				}
			}
			_, got := c.Get(key, now)
			want := ref.get(key, now)
			what = fmt.Sprintf("Get(%s) = %v, model %v", key, got, want)
			if got != want {
				t.Fatalf("step %d: %s", step, what)
			}
		default:
			ttl := time.Duration(rng.Intn(4000)) * time.Millisecond
			_, want := ref.entries[key]
			if want {
				e := ref.entries[key]
				e.expires = now.Add(ttl)
				ref.entries[key] = e
				ref.touch(key)
			}
			got := c.Refresh(key, now, ttl)
			what = fmt.Sprintf("Refresh(%s) = %v, model %v", key, got, want)
			if got != want {
				t.Fatalf("step %d: %s", step, what)
			}
		}
		if got := c.Bytes(); got != ref.used || got > maxBytes || c.Len() != len(ref.order) {
			t.Fatalf("step %d: after %s: %d bytes in %d entries, model %d in %d (budget %d)", step, what, got, c.Len(), ref.used, len(ref.order), maxBytes)
		}
	}
}
