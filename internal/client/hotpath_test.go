package client

import (
	"context"
	"sync"
	"testing"
	"time"

	"pano/internal/codec"
	"pano/internal/manifest"
	"pano/internal/mathx"
	"pano/internal/obs"
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
// swarm's session rate: a successful tile fetch on a virtual clock builds
// no span, attribute list, argument list, deadline context or rung slice
// — unwatched, traced (a clean first attempt records nothing of its own)
// and metered without a trace (no exemplar to keep). Each watcher is the
// one a session under that config builds.
func TestFetchTileResilientAllocatesNothing(t *testing.T) {
	m := fixture(t).man
	clk := NewVirtualClock(0)
	tp := &rateTransport{m: m, clk: clk, bps: topRate(m)}
	traced, root := trace.New(trace.Config{Seed: 1}).Start(context.Background(), "fetch")
	defer root.End()
	watched := func(ctx context.Context, reg *obs.Registry) *watcher {
		_, w, _ := watch(ctx, &StreamConfig{Planner: player.WholePlanner{}, Clock: clk, Obs: reg}, tp.Target())
		w.streaming(m)
		return w
	}
	var tf tileFetch
	for _, c := range []struct {
		name string
		ctx  context.Context
		w    *watcher
	}{
		{"unwatched", context.Background(), nil},
		{"traced", traced, watched(traced, nil)},
		{"metered", context.Background(), watched(context.Background(), obs.NewRegistry())},
	} {
		if (c.w != nil && c.w.traceHex != "") != (c.name == "traced") {
			t.Fatalf("%s: watcher traceHex %q", c.name, c.w.traceHex)
		}
		f := Fetcher{tp: tp, clk: clk, pol: DefaultFetchPolicy(), rng: mathx.NewRNG(1), w: c.w}
		for _, planned := range []codec.Level{0, codec.Level(codec.NumLevels - 1)} {
			allocs := testing.AllocsPerRun(100, func() {
				err := f.fetch(c.ctx, 1, 0, planned, f.pol.attemptTimeout(2*time.Second, false), &tf)
				if err != nil || tf.skipped || tf.level != planned {
					t.Fatalf("fetch: %+v, %v", tf, err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s, planned level %d: %v allocs per clean tile fetch, want 0", c.name, planned, allocs)
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
