package swarm

import (
	"context"
	"reflect"
	"testing"
	"time"

	"pano/internal/chaos"
	"pano/internal/client"
	"pano/internal/codec"
	"pano/internal/fleet"
	"pano/internal/geom"
	"pano/internal/manifest"
	"pano/internal/mathx"
	"pano/internal/nettrace"
	"pano/internal/server"
)

// raggedManifest is a valid manifest whose chunks are tiled 2, 3, 1 and
// 4 ways — Pano tiles each chunk on its own, so tile counts differ.
func raggedManifest(t testing.TB) *manifest.Video {
	t.Helper()
	m := &manifest.Video{Name: "ragged", W: 12, H: 4, FPS: 10, ChunkSec: 1}
	for k, cols := range []int{2, 3, 1, 4} {
		c := manifest.Chunk{Index: k}
		for i := 0; i < cols; i++ {
			tile := manifest.Tile{Rect: geom.Rect{X0: i * m.W / cols, Y0: 0, X1: (i + 1) * m.W / cols, Y1: m.H}}
			for l := 0; l < codec.NumLevels; l++ {
				tile.Bits[l] = float64(1000 * (codec.NumLevels - l) * (k + i + 1))
				tile.RefPSPNR[l] = float64(60 - 5*l)
				tile.LUT[l].ACoeff = 1
			}
			c.Tiles = append(c.Tiles, tile)
		}
		m.Chunks = append(m.Chunks, c)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPlacementRaggedManifest: every object of a ragged manifest gets
// its own ring order — the one the ring computes for its path. Sized by
// chunk 0's tile count (two here), chunk 1's third tile aliases chunk
// 2's first and chunk 3 runs off the end of the table.
func TestPlacementRaggedManifest(t *testing.T) {
	m := raggedManifest(t)
	fc := &FleetConfig{Origins: 4}
	p := newPlacement(m, fc)
	ring := fleet.NewRing([]string{shardName(0), shardName(1), shardName(2), shardName(3)}, 0)
	for k := range m.Chunks {
		for ti := range m.Chunks[k].Tiles {
			for l := 0; l < codec.NumLevels; l++ {
				want := ring.Order(ring.Key(server.TilePath(k, ti, codec.Level(l))))
				if got := p.tileOrder(k, ti, codec.Level(l)); !reflect.DeepEqual(got, want) {
					t.Fatalf("tile (%d,%d,%d): order %v, want %v", k, ti, l, got, want)
				}
			}
		}
	}
}

// TestDrawCountersMatchMap: the VirtualNet's flat per-object counters
// hand chaos.Rule.Draw the same index, object by object, as a
// per-session map keyed on client.TileKey — over a ragged manifest, so
// every object of every chunk has a counter of its own, with repeats,
// and again from zero for the worker's next session.
func TestDrawCountersMatchMap(t *testing.T) {
	m := raggedManifest(t)
	rule := chaos.Rule{ErrorRate: 0.2, TruncateRate: 0.1, StallRate: 0.1, AbortRate: 0.1,
		Latency: 20 * time.Millisecond, Jitter: 10 * time.Millisecond}
	link := &nettrace.Link{Trace: &nettrace.Trace{Mbps: []float64{10}}}
	w := &scratch{}
	for session := 0; session < 2; session++ {
		seed := uint64(77 + session)
		s := newNetem(m, client.NewVirtualClock(0), link, rule, seed, 1e4, w)
		ref := map[uint64]uint64{}
		rng := mathx.NewRNG(5)
		for i := 0; i < 2000; i++ {
			k := rng.Intn(len(m.Chunks))
			ti := rng.Intn(len(m.Chunks[k].Tiles))
			l := codec.Level(rng.Intn(codec.NumLevels))
			key := client.TileKey(k, ti, l)
			want := rule.Draw(seed, key, ref[key])
			ref[key]++
			if got := s.Draw(k, ti, l); got != want {
				t.Fatalf("session %d draw %d on (%d,%d,%d): %+v, want %+v", session, i, k, ti, l, got, want)
			}
		}
	}
}

// TestNetemTileDoesNotAllocate: a tile through the swarm's logical
// network allocates nothing, single origin or walking the fleet's ladder
// — a ladder, RNG or closure made per walk would show here as one
// allocation per tile. (Rare events may allocate: a 500's StatusError,
// a backoff RNG once a round ends, the load histogram's growth.)
func TestNetemTileDoesNotAllocate(t *testing.T) {
	f := fixture(t)
	m := f.pano
	rule := chaos.Rule{ErrorRate: 0.02, TruncateRate: 0.01, Latency: 20 * time.Millisecond, Jitter: 10 * time.Millisecond}
	fc := &FleetConfig{Origins: 4, Breaker: fleet.BreakerConfig{FailureThreshold: 2, OpenFor: 2 * time.Second},
		Outages: []chaos.Down{{}, {After: 20 * time.Second, For: 30 * time.Second}}}
	place := newPlacement(m, fc)
	for _, withFleet := range []bool{false, true} {
		s := newNetem(m, client.NewVirtualClock(0), &nettrace.Link{Trace: f.bw[0], RTTSec: 0.05}, rule, 9, 1e6, &scratch{})
		if withFleet {
			s.fleet = newFleetSim(fc, place, 9, client.FetchPolicy{HedgeDelay: 150 * time.Millisecond})
		}
		i := 0
		if n := testing.AllocsPerRun(2000, func() {
			k := i % m.NumChunks()
			s.Tile(context.Background(), k, i%len(m.Chunks[k].Tiles), codec.Level(i%codec.NumLevels))
			i++
		}); n != 0 {
			t.Errorf("fleet %v: %v allocs per tile, want 0", withFleet, n)
		}
	}
}

// BenchmarkNetemTile is one tile request through the swarm's logical
// network, single origin and through the fleet twin (4 shards, fixed
// hedge delay) — the per-tile cost under client.fetchTileResilient.
func BenchmarkNetemTile(b *testing.B) {
	f := fixture(b)
	m := f.pano
	rule := chaos.Rule{ErrorRate: 0.02, TruncateRate: 0.01, Latency: 20 * time.Millisecond, Jitter: 10 * time.Millisecond}
	fc := &FleetConfig{Origins: 4, Breaker: fleet.BreakerConfig{FailureThreshold: 2, OpenFor: 2 * time.Second}}
	place := newPlacement(m, fc)
	for _, withFleet := range []bool{false, true} {
		name := "single"
		if withFleet {
			name = "fleet"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			clk := client.NewVirtualClock(0)
			s := newNetem(m, clk, &nettrace.Link{Trace: f.bw[0], RTTSec: 0.05}, rule, 9, 1e6, &scratch{})
			if withFleet {
				s.fleet = newFleetSim(fc, place, 9, client.FetchPolicy{HedgeDelay: 150 * time.Millisecond})
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % m.NumChunks()
				// Faulted attempts return errors by design; both outcomes
				// are the path being timed.
				_, _ = s.Tile(ctx, k, i%len(m.Chunks[k].Tiles), codec.Level(i%codec.NumLevels))
			}
		})
	}
}
