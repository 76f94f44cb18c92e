// Package fleet is the multi-origin delivery layer: a consistent-hash
// ring shards (video, chunk, tile) object keys across N origins, active
// health probes and passive error signals drive a per-origin circuit
// breaker, and fetches fail over along the ring's successor order —
// optionally racing a hedged backup request — under a token-bucket
// retry/hedge budget so shard loss never becomes a retry storm.
//
// The edge proxy routes every cache fill through a Fleet, a single
// origin being a one-shard fleet; the swarm simulator reuses the ring,
// breaker, and budget with virtual time to replay whole-origin outages
// deterministically at 100k+ sessions.
package fleet

import (
	"sort"
	"strconv"
)

// defaultVnodes is the virtual-node count per origin. 64 vnodes keep
// the key share per origin within a few percent of uniform for small
// fleets while the ring stays tiny (N*64 entries).
const defaultVnodes = 64

// Ring is a consistent-hash ring over origin names with virtual nodes.
// It is immutable after construction.
type Ring struct {
	origins []string
	vn      []vnode
	// orders[i] is the failover ladder of every key whose owner is
	// vn[i]: the distinct origins met walking clockwise from there. A
	// lookup is a binary search and an index; the N·vnodes ladders (N
	// ints each) are walked once, here, not once per request.
	orders [][]int
}

type vnode struct {
	h uint64
	o int32
}

// NewRing builds a ring with the given virtual-node count per origin
// (<= 0 selects the default). Origins hash by name, so the mapping of
// keys to origins is stable under reordering of the origin list.
func NewRing(origins []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = defaultVnodes
	}
	r := &Ring{origins: append([]string(nil), origins...)}
	for i, org := range r.origins {
		for v := 0; v < vnodes; v++ {
			r.vn = append(r.vn, vnode{h: hashKey(org + "#" + strconv.Itoa(v)), o: int32(i)})
		}
	}
	sort.Slice(r.vn, func(i, j int) bool {
		if r.vn[i].h != r.vn[j].h {
			return r.vn[i].h < r.vn[j].h
		}
		return r.vn[i].o < r.vn[j].o
	})
	n := len(r.origins)
	flat := make([]int, 0, len(r.vn)*n)
	seen := make([]bool, n)
	r.orders = make([][]int, len(r.vn))
	for start := range r.vn {
		clear(seen)
		from := len(flat)
		for i := 0; i < len(r.vn) && len(flat)-from < n; i++ {
			if v := r.vn[(start+i)%len(r.vn)]; !seen[v.o] {
				seen[v.o] = true
				flat = append(flat, int(v.o))
			}
		}
		r.orders[start] = flat[from:len(flat):len(flat)]
	}
	return r
}

// Origins returns the configured origin names (index = origin id).
func (r *Ring) Origins() []string { return r.origins }

// Key hashes an object path into a ring key.
func (r *Ring) Key(path string) uint64 { return hashKey(path) }

// hashKey is fnv-64a finished with a splitmix64 avalanche: fnv alone
// clusters similar short strings ("origin#0".."origin#63") badly enough
// to skew vnode placement by 3x, and the finalizer restores a uniform
// spread. The fnv loop is written out (hash/fnv's New64a, byte for
// byte) because every routed request hashes its path and the hash.Hash
// behind an interface costs it two allocations.
func hashKey(s string) uint64 {
	x := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		x ^= uint64(s[i])
		x *= 1099511628211
	}
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Order returns every origin id in deterministic ring order starting at
// the key's owner — the failover ladder for that key. Successive keys
// spread both their owners and their fallback targets across the fleet,
// so losing one shard redistributes its load instead of dogpiling a
// single neighbour. The slice is the ring's own, shared by every key
// with the same owner vnode: read it, do not modify it.
func (r *Ring) Order(key uint64) []int {
	if len(r.vn) == 0 {
		return []int{}
	}
	start := sort.Search(len(r.vn), func(i int) bool { return r.vn[i].h >= key })
	if start == len(r.vn) {
		start = 0
	}
	return r.orders[start]
}
