package live_test

import (
	"context"
	"testing"
	"time"

	"pano/internal/live"
	"pano/internal/provider"
	"pano/internal/scene"
	"pano/internal/server"
	"pano/internal/store"
	"pano/internal/viewport"
)

func tinyFeed(t *testing.T) (*scene.Video, []*viewport.Trace) {
	t.Helper()
	opts := scene.Options{W: 240, H: 120, FPS: 10, DurationSec: 4}
	v := scene.Generate(scene.Sports, 7, opts)
	trs := []*viewport.Trace{viewport.Synthesize(v, 8, viewport.DefaultSynthesizeOpts())}
	return v, trs
}

func runFeed(t *testing.T, cfg live.Config) (*live.Pipeline, *live.Report) {
	t.Helper()
	p, err := live.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return p, rep
}

func TestPipelinePublishesWholeFeed(t *testing.T) {
	v, trs := tinyFeed(t)
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p, rep := runFeed(t, live.Config{
		Video: v, History: trs, Store: s,
		CaptureInterval: time.Millisecond, Deadline: time.Minute,
	})
	chunkSec := provider.ChunkSec
	wantChunks := int(float64(v.DurationSec) / chunkSec)
	if rep.Chunks != wantChunks {
		t.Fatalf("published %d chunks, want %d", rep.Chunks, wantChunks)
	}
	if rep.DeadlineMisses != 0 {
		t.Fatalf("deadline misses %d with a one-minute budget", rep.DeadlineMisses)
	}
	if got := rep.OnTimeFrac(); got != 1 {
		t.Fatalf("OnTimeFrac = %v, want 1", got)
	}
	m := p.Manifest()
	if m == nil {
		t.Fatal("no manifest published")
	}
	if m.Live {
		t.Fatal("final manifest still live; end-of-stream not signalled")
	}
	if m.NumChunks() != wantChunks {
		t.Fatalf("manifest has %d chunks, want %d", m.NumChunks(), wantChunks)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("published manifest invalid: %v", err)
	}
	// Head + one per chunk.
	if want := int64(wantChunks + 1); p.Seq() != want {
		t.Fatalf("Seq = %d, want %d", p.Seq(), want)
	}
	// Everything the manifest names resolves through a reader backend —
	// order and completeness of the publish protocol.
	b, err := store.NewBackend(s)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < m.NumChunks(); k++ {
		for ti := range m.Chunks[k].Tiles {
			if _, err := b.TileData(k, ti, 0); err != nil {
				t.Fatalf("chunk %d tile %d unresolvable: %v", k, ti, err)
			}
		}
	}
}

func TestPipelineEdgeIsMonotonic(t *testing.T) {
	v, trs := tinyFeed(t)
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p, err := live.New(live.Config{
		Video: v, History: trs, Store: s, CaptureInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := p.Run(context.Background())
		done <- err
	}()
	lastEdge, lastSeq := 0, int64(0)
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if p.Edge() == 0 {
				t.Fatal("feed finished with empty edge")
			}
			return
		default:
		}
		e, q := p.Edge(), p.Seq()
		if e < lastEdge || q < lastSeq {
			t.Fatalf("edge/seq went backwards: %d<%d || %d<%d", e, lastEdge, q, lastSeq)
		}
		lastEdge, lastSeq = e, q
		time.Sleep(200 * time.Microsecond)
	}
}

// TestTightDeadlineDegrades: an impossible deadline forces every chunk
// onto the degraded rung and counts every publish as a miss — the feed
// still completes (late chunks publish, they never stall the edge).
func TestTightDeadlineDegrades(t *testing.T) {
	v, trs := tinyFeed(t)
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, rep := runFeed(t, live.Config{
		Video: v, History: trs, Store: s,
		CaptureInterval: time.Millisecond, Deadline: time.Nanosecond,
	})
	if rep.Chunks == 0 {
		t.Fatal("no chunks published")
	}
	if rep.DeadlineMisses != rep.Chunks {
		t.Fatalf("misses %d, want every one of %d chunks", rep.DeadlineMisses, rep.Chunks)
	}
	if rep.Degraded != rep.Chunks {
		t.Fatalf("degraded %d, want every one of %d chunks", rep.Degraded, rep.Chunks)
	}
}

func TestWindowRetirementAndGone(t *testing.T) {
	v, trs := tinyFeed(t)
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p, rep := runFeed(t, live.Config{
		Video: v, History: trs, Store: s,
		CaptureInterval: time.Millisecond, WindowChunks: 2,
	})
	m := p.Manifest()
	n := m.NumChunks()
	if want := n - 2; rep.Expired != want {
		t.Fatalf("expired %d chunks, want %d", rep.Expired, want)
	}
	if m.FirstChunk != n-2 {
		t.Fatalf("FirstChunk = %d, want %d", m.FirstChunk, n-2)
	}
	if m.NumChunks()-m.FirstChunk != 2 {
		t.Fatalf("availability window [%d, %d), want 2 chunks", m.FirstChunk, m.NumChunks())
	}
	b, err := store.NewBackend(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.TileStat(0, 0, 0); err != server.ErrObjectGone {
		t.Fatalf("retired chunk = %v, want ErrObjectGone", err)
	}
	if _, err := b.TileData(n-1, 0, 0); err != nil {
		t.Fatalf("in-window chunk: %v", err)
	}
	// Retired blobs are reclaimable once the retention horizon passes.
	removed, _ := s.GC(0)
	if removed == 0 {
		t.Fatal("GC(0) reclaimed nothing after retirement")
	}
	// The window survivors are still fully intact after GC.
	for k := n - 2; k < n; k++ {
		if _, err := b.TileData(k, 0, 0); err != nil {
			t.Fatalf("GC broke in-window chunk %d: %v", k, err)
		}
	}
}

// TestDegradedConfigStillValid: the cheap rung produces chunks whose
// manifests validate (the degrade decision must never publish garbage).
func TestDegradedConfigStillValid(t *testing.T) {
	v, trs := tinyFeed(t)
	cfg := live.DegradedConfig(provider.DefaultConfig())
	ch, err := provider.ChunkAt(v, trs, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.Tiles) == 0 {
		t.Fatal("degraded chunk has no tiles")
	}
}
