package fleet

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"pano/internal/client"
	"pano/internal/obs"
)

// walkOrder is Ring.Order as it was — hash/fnv behind the finalizer,
// then a clockwise walk collecting distinct origins — kept as the
// oracle of the table NewRing builds.
func walkOrder(r *Ring, path string) []int {
	h := fnv.New64a()
	h.Write([]byte(path))
	key := h.Sum64()
	key ^= key >> 30
	key *= 0xbf58476d1ce4e5b9
	key ^= key >> 27
	key *= 0x94d049bb133111eb
	key ^= key >> 31

	n := len(r.origins)
	out := make([]int, 0, n)
	seen := make([]bool, n)
	start := sort.Search(len(r.vn), func(i int) bool { return r.vn[i].h >= key })
	for i := 0; i < len(r.vn) && len(out) < n; i++ {
		v := r.vn[(start+i)%len(r.vn)]
		if !seen[v.o] {
			seen[v.o] = true
			out = append(out, int(v.o))
		}
	}
	return out
}

// TestRingOrderMatchesWalk: on rings of one to eight origins, 10 000
// random keys each (tile paths, the manifest, arbitrary strings) get
// the ladder the per-call walk gave them, so no object changes owner or
// failover target — the edge's fills and the swarm's placement both
// read this table. Keys at and around every vnode boundary included.
func TestRingOrderMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1911))
	for n := 1; n <= 8; n++ {
		names := make([]string, n)
		for i := range names {
			names[i] = "http://10.0.0." + strconv.Itoa(i+1) + ":8360"
		}
		for _, vnodes := range []int{0, 1, 7} {
			r := NewRing(names, vnodes)
			check := func(path string) {
				t.Helper()
				got, want := r.Order(r.Key(path)), walkOrder(r, path)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%d origins, %d vnodes, %q: Order = %v, the walk gives %v", n, vnodes, path, got, want)
				}
				if cap(got) != len(got) {
					t.Fatalf("Order(%q) has spare capacity %d: an append would write into the next ladder", path, cap(got)-len(got))
				}
			}
			check("/manifest.json")
			check("")
			for i := 0; i < 10000; i++ {
				switch i % 3 {
				case 0:
					check("/video/" + strconv.Itoa(rng.Intn(600)) + "/" + strconv.Itoa(rng.Intn(40)) + "/" + strconv.Itoa(rng.Intn(5)) + ".bin")
				case 1:
					check(strconv.FormatUint(rng.Uint64(), 36))
				default:
					b := make([]byte, rng.Intn(40))
					rng.Read(b)
					check(string(b))
				}
			}
			// Raw keys on, just below and just above every vnode, and the
			// wrap past the last one.
			for _, v := range r.vn {
				for _, key := range []uint64{v.h - 1, v.h, v.h + 1} {
					start := sort.Search(len(r.vn), func(i int) bool { return r.vn[i].h >= key })
					if got, want := r.Order(key)[0], int(r.vn[start%len(r.vn)].o); got != want {
						t.Fatalf("key %#x: owner %d, want %d", key, got, want)
					}
				}
			}
			if got, want := r.Order(^uint64(0))[0], r.Order(0)[0]; r.vn[len(r.vn)-1].h != ^uint64(0) && got != want {
				t.Fatalf("a key past the last vnode is owned by %d, the ring's first vnode by %d", got, want)
			}
		}
	}
	if got := NewRing(nil, 0).Order(42); len(got) != 0 {
		t.Fatalf("empty ring: Order = %v", got)
	}
}

// TestRoutingDoesNotAllocate: hashing a path, finding its ladder and
// picking its first available origin are per-request work at the edge.
func TestRoutingDoesNotAllocate(t *testing.T) {
	urls := []string{"http://a:1", "http://b:1", "http://c:1"}
	f, err := New(Config{Origins: urls, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	paths := make([]string, 64)
	for i := range paths {
		paths[i] = "/video/" + strconv.Itoa(i/8) + "/" + strconv.Itoa(i%8) + "/2.bin"
	}
	i := 0
	if n := testing.AllocsPerRun(500, func() {
		if len(f.ring.Order(f.ring.Key(paths[i%len(paths)]))) != len(urls) {
			t.Fatal("short ladder")
		}
		i++
	}); n != 0 {
		t.Errorf("Ring.Key + Ring.Order: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(500, func() {
		if f.Pick(paths[i%len(paths)]) == "" {
			t.Fatal("no origin picked")
		}
		i++
	}); n != 0 {
		t.Errorf("Fleet.Pick: %v allocs/op, want 0", n)
	}
}

// TestBreakerGaugePublishedOnChange: the per-origin gauge appears with
// the first refresh for every origin, as it did when every refresh
// wrote every gauge, and follows each breaker through open and back to
// closed although unchanged positions are no longer rewritten.
func TestBreakerGaugePublishedOnChange(t *testing.T) {
	now := time.Unix(5000, 0)
	reg := obs.NewRegistry()
	f, err := New(Config{
		Origins: []string{"http://a:1", "http://b:1"}, Obs: reg,
		Breaker: BreakerConfig{FailureThreshold: 2, OpenFor: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.now = func() time.Time { return now }
	defer f.Close()
	gauge := func(i int) float64 {
		return reg.GaugeValue("pano_fleet_breaker_state", obs.L("origin", strconv.Itoa(i)))
	}
	series := func() int {
		n := 0
		for _, s := range reg.Snapshot() {
			if s.Name == "pano_fleet_breaker_state" {
				n++
			}
		}
		return n
	}
	if series() != 0 {
		t.Fatal("breaker gauges registered before any refresh")
	}
	f.refreshGauges()
	if series() != 2 || gauge(0) != float64(Closed) || gauge(1) != float64(Closed) {
		t.Fatalf("first refresh: %d series, gauges %v %v; want both origins closed", series(), gauge(0), gauge(1))
	}
	f.ors[1].brk.Failure(now)
	f.ors[1].brk.Failure(now)
	f.refreshGauges()
	if gauge(0) != float64(Closed) || gauge(1) != float64(Open) || reg.GaugeValue("pano_fleet_origins_open") != 1 {
		t.Fatalf("after two failures on origin 1: gauges %v %v, origins_open %v", gauge(0), gauge(1), reg.GaugeValue("pano_fleet_origins_open"))
	}
	now = now.Add(2 * time.Second) // past OpenFor's jitter: the probe window
	f.refreshGauges()
	if gauge(1) != float64(HalfOpen) {
		t.Fatalf("after the open interval: gauge %v, want half-open", gauge(1))
	}
	f.ors[1].brk.Success(now)
	f.refreshGauges()
	if gauge(1) != float64(Closed) || reg.GaugeValue("pano_fleet_origins_open") != 0 {
		t.Fatalf("after recovery: gauge %v, origins_open %v", gauge(1), reg.GaugeValue("pano_fleet_origins_open"))
	}

	// Refreshes racing with breaker moves, as concurrent fetches make
	// them: once the moves stop the gauges are on the breakers' positions
	// with no further refresh, although most calls took no lock.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if (i+g)%3 == 0 {
					f.ors[g%2].brk.Success(now)
				} else {
					f.ors[g%2].brk.Failure(now)
				}
				f.refreshGauges()
			}
		}(g)
	}
	wg.Wait()
	open := 0.0
	for i, o := range f.ors {
		st := o.brk.State(now)
		if st == Open {
			open++
		}
		if gauge(i) != float64(st) {
			t.Errorf("after racing refreshes: origin %d gauge %v, breaker %v", i, gauge(i), st)
		}
	}
	if got := reg.GaugeValue("pano_fleet_origins_open"); got != open {
		t.Errorf("after racing refreshes: origins_open %v, %v breakers open", got, open)
	}
}

// BenchmarkFleetFetch is one Fetch over loopback through a fleet of two
// healthy origins serving a 1.8 KB object (the bench video's mean tile):
// ring order, admission, the attempt goroutine and its hedge timer, one
// FetchRaw, breaker and latency bookkeeping, gauges.
func BenchmarkFleetFetch(b *testing.B) {
	body := make([]byte, 1800)
	var urls []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("ETag", `"v1"`)
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Length", "1800")
			w.Write(body)
		}))
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	f, err := New(Config{Origins: urls, Seed: 7, Obs: obs.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	paths := make([]string, 240)
	for i := range paths {
		paths[i] = "/video/" + strconv.Itoa(i/30) + "/" + strconv.Itoa(i%30) + "/2.bin"
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := f.Fetch(ctx, paths[i%len(paths)], "")
		if err != nil || len(res.Body) != len(body) {
			b.Fatalf("fetch: %d bytes, %v", len(res.Body), err)
		}
	}
}

// BenchmarkCleanWalk is the steady state of a walk's admission: one
// Budget.Earn, Breaker.Allow and Breaker.Success per op on one healthy
// origin's breaker and the fleet's budget, from one goroutine (a swarm
// session's own policy) and from two sharing them (fleet.Fetch's
// concurrent walks).
func BenchmarkCleanWalk(b *testing.B) {
	for _, g := range []int{1, 2} {
		b.Run("goroutines="+strconv.Itoa(g), func(b *testing.B) {
			b.ReportAllocs()
			pol := NewPolicy(client.FetchPolicy{}, BreakerConfig{}, 1, 7)
			brk, budget := pol.Breaker(0), pol.Budget()
			now := time.Unix(100, 0)
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						budget.Earn()
						if ok, _ := brk.Allow(now); !ok {
							panic("a healthy origin's breaker refused a request")
						}
						brk.Success(now)
					}
				}(b.N/g + min(w, b.N%g))
			}
			wg.Wait()
		})
	}
}
