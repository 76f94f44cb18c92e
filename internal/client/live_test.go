package client

import (
	"context"
	"sync"
	"testing"
	"time"

	"pano/internal/codec"
	"pano/internal/manifest"
	"pano/internal/obs"
)

// scriptedTransport serves a scripted sequence of manifest refreshes —
// each Manifest call returns the next entry (sticking at the last),
// instantly or manifestDelay later on clk — and answers every tile at
// its manifest size: instantly, or tileDelay later on clk within the
// attempt's virtual deadline. It is the deterministic stand-in for an
// origin whose live edge moves.
type scriptedTransport struct {
	full *manifest.Video // sizes for Tile, regardless of script position

	clk                      *VirtualClock
	tileDelay, manifestDelay time.Duration

	mu     sync.Mutex
	script []*manifest.Video
	idx    int
	calls  int
}

func (f *scriptedTransport) Target() string { return "fake://live" }

func (f *scriptedTransport) Manifest(ctx context.Context) (*manifest.Video, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.script[f.idx]
	if f.idx < len(f.script)-1 {
		f.idx++
	}
	f.calls++
	if f.manifestDelay > 0 {
		f.clk.Advance(f.manifestDelay)
	}
	return m, nil
}

func (f *scriptedTransport) Tile(ctx context.Context, k, ti int, l codec.Level) (float64, error) {
	if f.tileDelay > 0 {
		if at := deadlineOf(ctx); at != nil && f.clk.off+f.tileDelay > at.dl {
			f.clk.Advance(at.dl - f.clk.off)
			return 0, context.DeadlineExceeded
		}
		f.clk.Advance(f.tileDelay)
	}
	return f.full.Chunks[k].Tiles[ti].Bits[l], nil
}

// liveCopy returns a live manifest holding the first n chunks of m.
func liveCopy(m *manifest.Video, n int, seq int64, stillLive bool) *manifest.Video {
	c := *m
	c.Chunks = m.Chunks[:n]
	c.Live = stillLive
	c.Seq = seq
	return &c
}

func livePolicy() LivePolicy {
	return LivePolicy{PollInterval: time.Millisecond, EdgeTimeout: 5 * time.Second}
}

// liveCountersMatch fails unless reg's live counters equal the session's
// live figures (timeouts is how many edge timeouts it should have
// counted), and a counter has a series only once its event happened.
func liveCountersMatch(t *testing.T, reg *obs.Registry, res *StreamResult, timeouts float64) {
	t.Helper()
	want := map[string]float64{
		"pano_client_live_skips_total":             float64(res.LiveSkippedChunks),
		"pano_client_live_edge_timeouts_total":     timeouts,
		"pano_client_live_edge_wait_seconds_total": res.LiveEdgeWaitSec,
	}
	seen := map[string]bool{}
	for _, s := range reg.Snapshot() {
		if w, ok := want[s.Name]; ok {
			seen[s.Name] = true
			if s.Value != w || w == 0 {
				t.Errorf("%s = %v, want %v (and no series before its first event)", s.Name, s.Value, w)
			}
		}
	}
	for name, w := range want {
		if w != 0 && !seen[name] {
			t.Errorf("%s has no series, want %v", name, w)
		}
	}
}

// TestLiveSessionFollowsEdge: a session blocked at the edge resumes when
// a refresh grows the manifest, refuses to adopt a backwards refresh (a
// lagging origin), and ends cleanly when the feed clears Live.
func TestLiveSessionFollowsEdge(t *testing.T) {
	full := fixture(t).man
	tp := &scriptedTransport{full: full, script: []*manifest.Video{
		liveCopy(full, 1, 1, true),
		liveCopy(full, 2, 2, true),
		liveCopy(full, 1, 1, true), // lagging origin: edge went backwards
		liveCopy(full, 3, 3, false),
	}}
	res, err := RunSession(context.Background(), tp, fixture(t).tr, StreamConfig{
		Live: livePolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chunks) != 3 {
		t.Fatalf("streamed %d chunks, want 3", len(res.Chunks))
	}
	for i, cr := range res.Chunks {
		if cr.Chunk != i {
			t.Fatalf("chunk %d streamed out of order as %d", i, cr.Chunk)
		}
	}
	if res.LiveEdgeWaits == 0 {
		t.Fatal("session never blocked at the edge despite a growing manifest")
	}
	if res.LiveLatencyMaxSec <= 0 {
		t.Fatal("live latency never sampled")
	}
}

// TestLiveSessionSkipsExpiredWindow: when the availability window slides
// past the playhead, the session skips to the window start (the
// chunk-level answer to 410 Gone) instead of fetching retired tiles.
func TestLiveSessionSkipsExpiredWindow(t *testing.T) {
	full := fixture(t).man
	slid := liveCopy(full, 3, 2, false)
	slid.FirstChunk = 2
	tp := &scriptedTransport{full: full, script: []*manifest.Video{
		liveCopy(full, 1, 1, true),
		slid,
	}}
	reg := obs.NewRegistry()
	res, err := RunSession(context.Background(), tp, fixture(t).tr, StreamConfig{
		Live: livePolicy(), Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LiveSkippedChunks != 1 {
		t.Fatalf("LiveSkippedChunks = %d, want 1", res.LiveSkippedChunks)
	}
	liveCountersMatch(t, reg, res, 0)
	want := []int{0, 2}
	if len(res.Chunks) != len(want) {
		t.Fatalf("streamed %d chunks, want %d", len(res.Chunks), len(want))
	}
	for i, cr := range res.Chunks {
		if cr.Chunk != want[i] {
			t.Fatalf("streamed chunk %d at position %d, want %d", cr.Chunk, i, want[i])
		}
	}
}

// TestLiveSessionSkipsToEdgeWhenBehind: a refresh that jumps far ahead
// triggers the skip-to-edge latency policy.
func TestLiveSessionSkipsToEdgeWhenBehind(t *testing.T) {
	full := fixture(t).man
	tp := &scriptedTransport{full: full, script: []*manifest.Video{
		liveCopy(full, 1, 1, true),
		liveCopy(full, 3, 2, false),
	}}
	pol := livePolicy()
	pol.MaxLatencyChunks = 1
	reg := obs.NewRegistry()
	res, err := RunSession(context.Background(), tp, fixture(t).tr, StreamConfig{Live: pol, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	// After chunk 0 the refresh shows edge 3: 2 chunks behind > 1, so the
	// session skips chunk 1 and plays 2 (the newest published).
	want := []int{0, 2}
	if len(res.Chunks) != len(want) || res.Chunks[1].Chunk != 2 {
		t.Fatalf("streamed %v, want chunks %v", res.Chunks, want)
	}
	if res.LiveSkippedChunks != 1 {
		t.Fatalf("LiveSkippedChunks = %d, want 1", res.LiveSkippedChunks)
	}
	liveCountersMatch(t, reg, res, 0)
}

// TestLiveSessionEdgeTimeoutEndsCleanly: a feed that dies (manifest
// stops growing, Live never clears) ends the session without an error —
// a late or dead publisher must never abort clients.
func TestLiveSessionEdgeTimeoutEndsCleanly(t *testing.T) {
	full := fixture(t).man
	tp := &scriptedTransport{full: full, script: []*manifest.Video{
		liveCopy(full, 1, 1, true),
	}}
	reg := obs.NewRegistry()
	res, err := RunSession(context.Background(), tp, fixture(t).tr, StreamConfig{
		Live: LivePolicy{PollInterval: time.Millisecond, EdgeTimeout: 20 * time.Millisecond}, Obs: reg,
	})
	if err != nil {
		t.Fatalf("dead feed aborted the session: %v", err)
	}
	if len(res.Chunks) != 1 {
		t.Fatalf("streamed %d chunks, want the 1 published", len(res.Chunks))
	}
	if res.LiveEdgeWaitSec <= 0 {
		t.Fatal("no edge wait recorded before timing out")
	}
	liveCountersMatch(t, reg, res, 1)

	// Left to its defaults, the session polls at the manifest's refresh
	// cadence — half a chunk — for 30 chunk durations.
	for _, chunkSec := range []float64{1, 0.5} {
		m := liveCopy(full, 1, 1, true)
		m.ChunkSec = chunkSec
		tp := &scriptedTransport{full: full, script: []*manifest.Video{m}}
		res, err := RunSession(context.Background(), tp, fixture(t).tr, StreamConfig{Clock: NewVirtualClock(0)})
		if err != nil {
			t.Fatal(err)
		}
		polls := tp.calls - 1 // the first call is the session's manifest
		want := time.Duration(chunkSec * float64(time.Second) / 2)
		if polls == 0 || time.Duration(res.LiveEdgeWaitSec/float64(polls)*float64(time.Second)) != want ||
			m.RefreshInterval() != want {
			t.Errorf("%gs chunks: %d polls over %.2fs, RefreshInterval %v; want one every %v",
				chunkSec, polls, res.LiveEdgeWaitSec, m.RefreshInterval(), want)
		}
		if wait := time.Duration(float64(polls) * float64(want)); wait != 30*time.Duration(chunkSec*float64(time.Second)) {
			t.Errorf("%gs chunks: waited %v at the edge, want 30 chunks", chunkSec, wait)
		}
	}
}

// TestLiveSessionMaxChunks: MaxChunks bounds a live session exactly like
// a VOD one.
func TestLiveSessionMaxChunks(t *testing.T) {
	full := fixture(t).man
	tp := &scriptedTransport{full: full, script: []*manifest.Video{
		liveCopy(full, 3, 1, true),
	}}
	res, err := RunSession(context.Background(), tp, fixture(t).tr, StreamConfig{
		MaxChunks: 1, Live: livePolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chunks) != 1 {
		t.Fatalf("streamed %d chunks, want 1", len(res.Chunks))
	}
}
