package edge

import (
	"net/http/httptest"
	"testing"
	"time"

	"pano/internal/codec"
	"pano/internal/geom"
	"pano/internal/obs"
	"pano/internal/player"
	"pano/internal/server"
	"pano/internal/viewport"
)

// waitFor polls cond — prefetch runs behind the demand response, so
// warm-state assertions are eventually consistent.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func testPeers(t *testing.T, n int) []*viewport.Trace {
	t.Helper()
	_, v := fixture(t)
	peers := make([]*viewport.Trace, n)
	for i := range peers {
		peers[i] = viewport.Synthesize(v, uint64(40+i), viewport.DefaultSynthesizeOpts())
	}
	return peers
}

// TestPredictTiles: the consensus warm set is non-empty, deterministic,
// and every member really clears the visibility threshold at the
// peers' consensus viewpoint.
func TestPredictTiles(t *testing.T) {
	m, _ := fixture(t)
	peers := testPeers(t, 3)
	tiles := PredictTiles(m, peers, 1)
	if len(tiles) == 0 {
		t.Fatal("consensus prediction selected no tiles")
	}
	if len(tiles) == len(m.Chunks[1].Tiles) {
		t.Error("consensus prediction selected every tile — threshold not discriminating")
	}
	again := PredictTiles(m, peers, 1)
	if len(again) != len(tiles) {
		t.Fatal("prediction not deterministic")
	}
	seen := make(map[int]bool, len(tiles))
	for _, ti := range tiles {
		seen[ti] = true
	}
	// Recompute visibility independently and cross-check membership.
	tmid := 1.5 * m.ChunkSec
	pts := make([]geom.Angle, len(peers))
	for i, tr := range peers {
		pts[i] = tr.At(tmid)
	}
	center := geom.Centroid(pts)
	for ti := range m.Chunks[1].Tiles {
		vis := player.Visibility(m, &m.Chunks[1].Tiles[ti], center, 15, 0)
		if (vis >= prefetchVisibility) != seen[ti] {
			t.Errorf("tile %d: visibility %.3f, in warm set: %v", ti, vis, seen[ti])
		}
	}
	if PredictTiles(m, nil, 1) != nil {
		t.Error("no peers must predict nothing")
	}
	if PredictTiles(m, peers, m.NumChunks()) != nil {
		t.Error("out-of-range chunk must predict nothing")
	}
}

// TestTileAtCenter: the popularity fallback's position mapping finds,
// for every tile of chunk 0, the chunk-1 tile covering its center; a
// demand path naming no tile of the manifest warms nothing.
func TestTileAtCenter(t *testing.T) {
	m, _ := fixture(t)
	for ti := range m.Chunks[0].Tiles {
		r := m.Chunks[0].Tiles[ti].Rect
		cx, cy := (r.X0+r.X1)/2, (r.Y0+r.Y1)/2
		nti, ok := m.Chunks[1].TileAt(cx, cy)
		if !ok {
			t.Fatalf("tile %d: no chunk-1 tile covers its center", ti)
		}
		if !m.Chunks[1].Tiles[nti].Rect.Contains(cx, cy) {
			t.Errorf("tile %d mapped to %d, whose rect misses the center", ti, nti)
		}
	}
	e, err := New(Config{Origins: []string{"http://127.0.0.1:1"}, CacheBytes: 1 << 20, PrefetchBudget: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.man.Store(m)
	for _, path := range []string{
		server.TilePath(-1, 0, 0),                     // out-of-range chunk
		server.TilePath(0, len(m.Chunks[0].Tiles), 0), // out-of-range tile
		server.TilePath(0, -1, 0),                     // negative tile
		server.TilePath(m.NumChunks()-1, 0, 0),        // no next chunk
	} {
		e.pf.observe(path)
	}
	if n := len(e.pf.planned); n != 0 {
		t.Errorf("demand for tiles the manifest lacks planned %d warms, want 0", n)
	}
}

// TestPrefetchConsensusWarm: with peer traces, one demand request for a
// chunk-0 tile warms exactly the consensus tiles of chunk 1, at the
// demanded level, each with its own origin fetch.
func TestPrefetchConsensusWarm(t *testing.T) {
	m, _ := fixture(t)
	peers := testPeers(t, 3)
	origin := newOrigin(t)
	ots := httptest.NewServer(origin)
	defer ots.Close()
	e, ets, reg := newEdge(t, ots.URL, func(c *Config) {
		c.PrefetchBudget = 64
		c.Peers = peers
	})

	get(t, ets.URL+"/manifest.json")
	if e.man.Load() == nil {
		t.Fatal("edge did not learn the manifest from its own traffic")
	}
	get(t, ets.URL+"/video/0/0/1.bin")

	predicted := PredictTiles(m, peers, 1)
	for _, ti := range predicted {
		path := server.TilePath(1, ti, codec.Level(1))
		waitFor(t, "warm "+path, func() bool {
			_, st := e.cache.Get(path, time.Now())
			return st == Fresh
		})
	}
	e.DrainPrefetch()
	if got, want := origin.tiles.Load(), int64(1+len(predicted)); got != want {
		t.Errorf("origin tile fetches %d, want %d (1 demand + %d warms)", got, want, len(predicted))
	}
	if got := reg.CounterValue("pano_edge_prefetch_total", obs.L("result", "warmed")); got != float64(len(predicted)) {
		t.Errorf("warmed counter %v, want %d", got, len(predicted))
	}
	// A demand fetch for a warmed tile is now a pure hit.
	_, _, h := get(t, ets.URL+server.TilePath(1, predicted[0], codec.Level(1)))
	if h.Get("X-Cache") != "hit" {
		t.Errorf("warmed tile served with X-Cache %q, want hit", h.Get("X-Cache"))
	}
}

// TestPrefetchPopularityFallback: without peers, demand for a tile
// warms the tile covering the same panorama position one chunk later.
func TestPrefetchPopularityFallback(t *testing.T) {
	m, _ := fixture(t)
	origin := newOrigin(t)
	ots := httptest.NewServer(origin)
	defer ots.Close()
	e, ets, reg := newEdge(t, ots.URL, func(c *Config) { c.PrefetchBudget = 8 })

	get(t, ets.URL+"/manifest.json")
	get(t, ets.URL+"/video/0/0/0.bin")

	r := m.Chunks[0].Tiles[0].Rect
	nti, ok := m.Chunks[1].TileAt((r.X0+r.X1)/2, (r.Y0+r.Y1)/2)
	if !ok {
		t.Fatal("fixture has no position-stable successor tile")
	}
	path := server.TilePath(1, nti, codec.Level(0))
	waitFor(t, "warm "+path, func() bool {
		_, st := e.cache.Get(path, time.Now())
		return st == Fresh
	})
	e.DrainPrefetch()
	if got := reg.CounterValue("pano_edge_prefetch_total", obs.L("result", "warmed")); got < 1 {
		t.Errorf("warmed counter %v, want >= 1", got)
	}
}

// TestPrefetchTokenBudget: a budget of 1 lets exactly one warm through;
// the rest of the consensus set is throttled, so prefetch can never
// outrun demand.
func TestPrefetchTokenBudget(t *testing.T) {
	m, _ := fixture(t)
	peers := testPeers(t, 3)
	predicted := PredictTiles(m, peers, 1)
	if len(predicted) < 2 {
		t.Skipf("fixture consensus set too small (%d tiles) to exercise throttling", len(predicted))
	}
	origin := newOrigin(t)
	ots := httptest.NewServer(origin)
	defer ots.Close()
	_, ets, reg := newEdge(t, ots.URL, func(c *Config) {
		c.PrefetchBudget = 1
		c.Peers = peers
	})

	get(t, ets.URL+"/manifest.json")
	get(t, ets.URL+"/video/0/0/0.bin")

	waitFor(t, "token accounting", func() bool {
		warmed := reg.CounterValue("pano_edge_prefetch_total", obs.L("result", "warmed"))
		throttled := reg.CounterValue("pano_edge_prefetch_total", obs.L("result", "throttled"))
		return warmed+throttled >= float64(len(predicted))
	})
	warmed := reg.CounterValue("pano_edge_prefetch_total", obs.L("result", "warmed"))
	throttled := reg.CounterValue("pano_edge_prefetch_total", obs.L("result", "throttled"))
	if warmed != 1 {
		t.Errorf("warmed %v tiles on a 1-token budget, want exactly 1", warmed)
	}
	if throttled != float64(len(predicted)-1) {
		t.Errorf("throttled %v, want %d", throttled, len(predicted)-1)
	}
}

// TestPrefetchNeedsManifest: before a manifest has passed through, tile
// demand triggers no prefetch at all.
func TestPrefetchNeedsManifest(t *testing.T) {
	origin := newOrigin(t)
	ots := httptest.NewServer(origin)
	defer ots.Close()
	e, ets, reg := newEdge(t, ots.URL, func(c *Config) { c.PrefetchBudget = 8 })

	get(t, ets.URL+"/video/0/0/0.bin")
	time.Sleep(50 * time.Millisecond)
	e.DrainPrefetch()
	if got := origin.tiles.Load(); got != 1 {
		t.Errorf("origin saw %d tile fetches before any manifest, want just the demand one", got)
	}
	if got := reg.CounterValue("pano_edge_prefetch_total", obs.L("result", "warmed")); got != 0 {
		t.Errorf("warmed %v tiles without tile geometry", got)
	}
	if e.man.Load() != nil {
		t.Error("manifest learned from tile traffic?")
	}
}
