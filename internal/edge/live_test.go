package edge

import (
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"pano/internal/manifest"
	"pano/internal/obs"
	"pano/internal/server"
)

// liveFixture returns the fixture manifest truncated to n chunks and
// marked live.
func liveFixture(t *testing.T, n int, seq int64) *manifest.Video {
	t.Helper()
	m, _ := fixture(t)
	c := *m
	c.Chunks = m.Chunks[:n]
	c.Live = true
	c.Seq = seq
	return &c
}

func newLiveOrigin(t *testing.T, m *manifest.Video) *countingOrigin {
	t.Helper()
	s, err := server.New(m)
	if err != nil {
		t.Fatal(err)
	}
	return &countingOrigin{h: s.Handler()}
}

// TestPrefetchStopsAtLiveEdge: demand for a tile of the newest published
// chunk must NOT warm k+1 — it does not exist yet, and prefetching it
// would negative-cache a 404 for NegTTL right where the session is about
// to play. The refusal is observable as the live_edge counter.
func TestPrefetchStopsAtLiveEdge(t *testing.T) {
	lm := liveFixture(t, 2, 1)
	origin := newLiveOrigin(t, lm)
	ots := httptest.NewServer(origin)
	defer ots.Close()
	e, ets, reg := newEdge(t, ots.URL, func(c *Config) { c.PrefetchBudget = 8 })

	get(t, ets.URL+"/manifest.json")
	if e.man.Load() == nil || !e.man.Load().Live {
		t.Fatal("edge did not learn the live manifest")
	}
	// Demand at the edge (last published chunk).
	get(t, ets.URL+server.TilePath(lm.NumChunks()-1, 0, 0))
	time.Sleep(20 * time.Millisecond)
	e.DrainPrefetch()
	if got := origin.tiles.Load(); got != 1 {
		t.Errorf("origin saw %d tile fetches, want just the demand one", got)
	}
	if got := reg.CounterValue("pano_edge_prefetch_total", obs.L("result", "live_edge")); got != 1 {
		t.Errorf("live_edge counter %v, want 1", got)
	}
	if got := reg.CounterValue("pano_edge_prefetch_total", obs.L("result", "warmed")); got != 0 {
		t.Errorf("warmed %v tiles past the live edge", got)
	}
	// One chunk back from the edge prefetch works normally again (level 1
	// so the warm target cannot collide with the edge demand fetch above).
	get(t, ets.URL+server.TilePath(0, 0, 1))
	waitFor(t, "behind-edge warm", func() bool {
		return reg.CounterValue("pano_edge_prefetch_total", obs.L("result", "warmed")) >= 1
	})
}

// TestPrefetchSkipsRetiredWindow: demand for a retired chunk never warms
// its (equally retired) successor.
func TestPrefetchSkipsRetiredWindow(t *testing.T) {
	lm := liveFixture(t, 3, 2)
	lm.FirstChunk = 2
	origin := newLiveOrigin(t, lm)
	ots := httptest.NewServer(origin)
	defer ots.Close()
	e, ets, reg := newEdge(t, ots.URL, func(c *Config) { c.PrefetchBudget = 8 })

	get(t, ets.URL+"/manifest.json")
	get(t, ets.URL+server.TilePath(0, 0, 0)) // k+1 = 1 < FirstChunk = 2
	time.Sleep(20 * time.Millisecond)
	e.DrainPrefetch()
	if got := reg.CounterValue("pano_edge_prefetch_total", obs.L("result", "warmed")); got != 0 {
		t.Errorf("warmed %v tiles below the availability window", got)
	}
}

// TestLiveManifestTTLClamped: a live manifest expires from the edge
// cache within half a chunk (manifest.Video.RefreshInterval, which the
// origin's max-age also reads), so the next client poll reaches the
// origin and sees the moved edge; tiles keep the full TTL.
func TestLiveManifestTTLClamped(t *testing.T) {
	for _, tc := range []struct {
		chunkSec float64
		ttl      time.Duration
	}{{1, 500 * time.Millisecond}, {0.5, 250 * time.Millisecond}} {
		lm := liveFixture(t, 2, 1)
		lm.ChunkSec = tc.chunkSec
		origin := newLiveOrigin(t, lm)
		ots := httptest.NewServer(origin)
		defer ots.Close()
		e, ets, _ := newEdge(t, ots.URL, nil)

		// The origin's max-age is whole seconds: half a chunk renders 0.
		if _, _, h := get(t, ots.URL+server.ManifestPath); h.Get("Cache-Control") != "max-age=0" {
			t.Errorf("%gs chunks: origin Cache-Control %q, want max-age=0", tc.chunkSec, h.Get("Cache-Control"))
		}
		get(t, ets.URL+server.ManifestPath)
		ent, st := e.cache.Get(server.ManifestPath, time.Now())
		if st != Fresh {
			t.Fatalf("%gs chunks: manifest not cached fresh (state %v)", tc.chunkSec, st)
		}
		if ttl := ent.expires().Sub(time.Unix(0, ent.fetchedNs.Load())); ttl != tc.ttl || lm.RefreshInterval() != tc.ttl {
			t.Errorf("%gs chunks: edge TTL %v, RefreshInterval %v, want %v", tc.chunkSec, ttl, lm.RefreshInterval(), tc.ttl)
		}
		if ent, _ := e.cache.Get(server.TilePath(0, 0, 0), time.Now()); ent != nil {
			t.Fatal("tile cached before any tile request")
		}
		get(t, ets.URL+server.TilePath(0, 0, 0))
		if ent, _ := e.cache.Get(server.TilePath(0, 0, 0), time.Now()); ent == nil ||
			ent.expires().Sub(time.Unix(0, ent.fetchedNs.Load())) != time.Minute {
			t.Errorf("%gs chunks: a live feed's tile lost the full TTL", tc.chunkSec)
		}

		_, _, h := get(t, ets.URL+server.ManifestPath)
		if h.Get("X-Cache") != "hit" {
			t.Fatalf("immediate refetch X-Cache %q, want hit", h.Get("X-Cache"))
		}
		if got := origin.manifests.Load(); got != 2 {
			t.Fatalf("origin manifest fetches %d, want 2 (one direct, one fill)", got)
		}
		// Past the live TTL, the edge revalidates.
		time.Sleep(tc.ttl + 100*time.Millisecond)
		get(t, ets.URL+server.ManifestPath)
		if got := origin.manifests.Load(); got != 3 {
			t.Errorf("origin manifest fetches %d after live TTL, want 3", got)
		}
	}
}

// TestLearnManifestMonotonic: the edge never adopts a manifest whose
// edge or sequence went backwards (racing fills through two origins).
func TestLearnManifestMonotonic(t *testing.T) {
	origin := newLiveOrigin(t, liveFixture(t, 1, 1))
	ots := httptest.NewServer(origin)
	defer ots.Close()
	e, _, _ := newEdge(t, ots.URL, nil)

	newer := liveFixture(t, 3, 3)
	older := liveFixture(t, 2, 2)
	if got := e.learnManifest(newer.Marshal()); got == nil {
		t.Fatal("fresh manifest rejected")
	}
	if got := e.learnManifest(older.Marshal()); got != nil {
		t.Fatal("stale manifest adopted")
	}
	// Newer still, but carrying a float only raw bits can: not learned.
	poisoned, err := manifest.Unmarshal(liveFixture(t, 3, 4).Marshal())
	if err != nil {
		t.Fatal(err)
	}
	poisoned.Chunks[2].Tiles[0].Bits[0] = math.NaN()
	if got := e.learnManifest(poisoned.Marshal()); got != nil {
		t.Fatal("manifest with a NaN size adopted")
	}
	if m := e.man.Load(); m.NumChunks() != 3 || m.Seq != 3 {
		t.Fatalf("edge regressed to %d chunks seq %d", m.NumChunks(), m.Seq)
	}
}
