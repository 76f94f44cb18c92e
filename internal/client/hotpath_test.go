package client

import (
	"context"
	"sync"
	"testing"

	"pano/internal/codec"
	"pano/internal/manifest"
	"pano/internal/mathx"
	"pano/internal/player"
	"pano/internal/provider"
	"pano/internal/scene"
	"pano/internal/trace"
	"pano/internal/viewport"
)

// rateTransport delivers every object at a constant rate on a virtual
// clock: no faults, no link dynamics — the session loop's own cost.
type rateTransport struct {
	m   *manifest.Video
	clk *VirtualClock
	bps float64
}

func (t *rateTransport) Target() string { return "test://rate" }

func (t *rateTransport) Manifest(context.Context) (*manifest.Video, error) { return t.m, nil }

func (t *rateTransport) Tile(_ context.Context, k, ti int, l codec.Level) (float64, error) {
	bits := t.m.Chunks[k].Tiles[ti].Bits[l]
	t.clk.AdvanceSec(bits / t.bps)
	return bits, nil
}

// TestFetchTileResilientAllocatesNothing pins the mechanism behind the
// swarm's session rate: with no event log and no registry, a successful
// tile fetch on a virtual clock builds no span, attribute list, argument
// list, deadline context or rung slice — untraced, and traced too, since
// a clean first attempt records nothing of its own.
func TestFetchTileResilientAllocatesNothing(t *testing.T) {
	m := fixture(t).man
	clk := NewVirtualClock(0)
	tp := &rateTransport{m: m, clk: clk, bps: topRate(m)}
	pol := DefaultFetchPolicy()
	rng := mathx.NewRNG(1)
	ins := newFetchInstruments(nil)
	traced, root := trace.New(trace.Config{Seed: 1}).Start(context.Background(), "fetch")
	defer root.End()
	for name, ctx := range map[string]context.Context{"untraced": context.Background(), "traced": traced} {
		for _, planned := range []codec.Level{0, codec.Level(codec.NumLevels - 1)} {
			allocs := testing.AllocsPerRun(100, func() {
				tf, err := fetchTileResilient(ctx, tp, clk, 1, 0, planned, pol, 2, false, rng, &ins, nil)
				if err != nil || tf.skipped || tf.level != planned {
					t.Fatalf("fetch: %+v, %v", tf, err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s, planned level %d: %v allocs per clean tile fetch, want 0", name, planned, allocs)
			}
		}
	}
}

// TestHorizonMemoMatchesFresh: the memoised MPC menus are the rows the
// loop used to rebuild per chunk, for every chunk, and a manifest swap
// (a live refresh) recomputes them.
func TestHorizonMemoMatchesFresh(t *testing.T) {
	full := fixture(t).man
	// A second manifest with different sizes behind every row.
	swapped := *full
	swapped.Chunks = append([]manifest.Chunk(nil), full.Chunks...)
	for k := range swapped.Chunks {
		tiles := append([]manifest.Tile(nil), swapped.Chunks[k].Tiles...)
		for i := range tiles {
			for l := range tiles[i].Bits {
				tiles[i].Bits[l] *= 1.5
				tiles[i].RefPSPNR[l] *= 0.9
			}
		}
		swapped.Chunks[k].Tiles = tiles
	}
	const horizon = 3
	var memo horizonMemo
	for _, m := range []*manifest.Video{full, liveCopy(full, 2, 1, true), &swapped, full} {
		n := m.NumChunks()
		for k := 0; k < n; k++ {
			got := memo.window(m, k, min(k+horizon, n))
			if len(got) != min(horizon, n-k) {
				t.Fatalf("window(%d) has %d rows", k, len(got))
			}
			for i, row := range got {
				if want := horizonRow(m, k+i); row != want {
					t.Fatalf("chunk %d: memo %+v, fresh %+v", k+i, row, want)
				}
			}
		}
	}
	// The rows the loop reads as budgets are the manifest's own sums.
	for k := 0; k < full.NumChunks(); k++ {
		row := memo.window(full, k, k+1)[0]
		for l := 0; l < codec.NumLevels; l++ {
			if row.Bits[l] != full.ChunkBits(k, codec.Level(l)) ||
				row.Quality[l] != player.MeanRefPSPNR(full, k, codec.Level(l))/10 {
				t.Fatalf("chunk %d level %d: row %+v", k, l, row)
			}
		}
	}
}

var (
	benchOnce sync.Once
	benchMan  *manifest.Video
	benchView *viewport.Trace
)

// BenchmarkRunSessionVirtual is one 8-chunk session over a constant-rate
// transport in virtual time: the loop net of tile assignment (whole) and
// with Pano's allocator (pano). -benchmem carries the allocs/op the
// swarm's allocs_per_session is made of.
func BenchmarkRunSessionVirtual(b *testing.B) {
	benchOnce.Do(func() {
		v := scene.Generate(scene.Sports, 23, scene.Options{W: 240, H: 120, FPS: 10, DurationSec: 8})
		benchView = viewport.Synthesize(v, 1, viewport.DefaultSynthesizeOpts())
		m, err := provider.Preprocess(v, []*viewport.Trace{benchView}, provider.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		benchMan = m
	})
	for _, bc := range []struct {
		name    string
		planner player.Planner
	}{{"whole", player.WholePlanner{}}, {"pano", player.NewPanoPlanner()}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				clk := NewVirtualClock(0)
				tp := &rateTransport{m: benchMan, clk: clk, bps: topRate(benchMan) / 2}
				res, err := RunSession(context.Background(), tp, benchView, StreamConfig{
					Planner: bc.planner, Clock: clk, MaxBufferSec: 3,
				})
				if err != nil || len(res.Chunks) != 8 {
					b.Fatalf("session: %v", err)
				}
			}
		})
	}
}
