package client

import (
	"context"
	"math"
	"testing"
	"time"

	"pano/internal/chaos"
	"pano/internal/manifest"
	"pano/internal/mathx"
	"pano/internal/nettrace"
	"pano/internal/obs"
)

// The ledger's three moves, as the property test and FuzzPlayout drive
// them.
const (
	opPass = iota // a download or a wait: time passes
	opLand        // a chunk lands
	opIdle        // a pacing idle down to a cap
	numOps
)

// step applies one move to p and fails t unless the ledger's rules hold
// across it: every second counted once (elapsed + buffer = startup +
// media + stall), a buffer never negative or over a pacing cap, no stall
// before the first chunk has landed and no startup after, and what a
// move returns being exactly what it added.
func step(t testing.TB, p *playout, op int, v float64) {
	t.Helper()
	before := *p
	switch op {
	case opPass:
		stall := p.pass(v)
		if p.stall != before.stall+stall {
			t.Fatalf("pass(%v) returned stall %v, the ledger went from %v to %v", v, stall, before.stall, p.stall)
		}
		if !before.started && stall != 0 {
			t.Fatalf("pass(%v) stalled %v before the first chunk landed", v, stall)
		}
	case opLand:
		if first := p.land(v); first != !before.started {
			t.Fatalf("land: first %v after started %v", first, before.started)
		}
	case opIdle:
		idle := p.idleTo(v)
		if idle < 0 || (v > 0 && p.buffer > v) || p.elapsed != before.elapsed+idle {
			t.Fatalf("idleTo(%v) from buffer %v: idle %v, buffer %v", v, before.buffer, idle, p.buffer)
		}
	}
	if p.buffer < 0 || p.stall < before.stall || p.startup < before.startup {
		t.Fatalf("after op %d(%v): %+v from %+v", op, v, *p, before)
	}
	if before.started && p.startup != before.startup {
		t.Fatalf("startup grew after the first chunk landed: %+v from %+v", *p, before)
	}
	checkIdentity(t, p)
}

// checkIdentity fails t unless p counts every second once: within 1e-9 s
// while the ledger holds under 1000 s, as every session here does, and
// within 1e-12 of its size beyond, where fuzzed sequences run.
func checkIdentity(t testing.TB, p *playout) {
	t.Helper()
	r := p.elapsed + p.buffer - (p.startup + p.media + p.stall)
	if math.Abs(r) > 1e-9*max(1, (p.elapsed+p.media)/1000) {
		t.Fatalf("elapsed %v + buffer %v != startup %v + media %v + stall %v (residual %g)",
			p.elapsed, p.buffer, p.startup, p.media, p.stall, r)
	}
}

// TestPlayoutCountsEverySecondOnce drives the ledger through seeded
// random sessions — a manifest fetch, live waits before and between
// chunks, downloads of any length, chunks of any length, pacing caps
// above and below the buffer — holding step's rules at every move.
func TestPlayoutCountsEverySecondOnce(t *testing.T) {
	rng := mathx.NewRNG(0x91a7)
	for s := 0; s < 500; s++ {
		var p playout
		step(t, &p, opPass, rng.Range(0, 0.2))
		chunkSec := rng.Range(0.25, 2)
		capSec := []float64{0, rng.Range(0, 4)}[rng.Intn(2)]
		for c := rng.Intn(40); c > 0; c-- {
			for w := rng.Intn(3); w > 0 && rng.Intn(3) == 0; w-- {
				step(t, &p, opPass, rng.Range(0, 1.5))
			}
			step(t, &p, opPass, rng.Range(0, 3*chunkSec))
			step(t, &p, opLand, chunkSec)
			step(t, &p, opIdle, capSec)
		}
	}
}

// FuzzPlayout holds the ledger to step's rules under arbitrary move
// sequences: each three input bytes are a move (first byte mod 3) and
// its seconds (the next two, big-endian, in 1/1024 s). The committed
// seeds under testdata/fuzz/FuzzPlayout/ are the shapes a session takes:
// a wait before the first chunk, a stall after it, an idle to a cap,
// and a paced VOD session.
func FuzzPlayout(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var p playout
		for ; len(data) >= 3; data = data[3:] {
			step(t, &p, int(data[0])%numOps, float64(uint16(data[1])<<8|uint16(data[2]))/1024)
		}
	})
}

// checkSession fails t unless the session res, which began at chunk
// first and ran for elapsed on a virtual clock, counts every second once
// — its ledger's identity, the ledger agreeing with the session's own
// figures and, within the pacing idle's nanosecond rounding, with the
// clock — plays every chunk once or counts it as skipped, and delivered
// exactly the tile sizes at the levels it fetched.
func checkSession(t *testing.T, res *StreamResult, first int, elapsed time.Duration) {
	t.Helper()
	p, m := &res.play, res.Manifest
	checkIdentity(t, p)
	n := len(res.Chunks)
	if p.stall != res.RebufferSec || math.Abs(p.startup-res.StartupDelay.Seconds()) > 1e-9 ||
		math.Abs(p.media-float64(n)*m.ChunkSec) > 1e-9 {
		t.Fatalf("ledger %+v; session: rebuffer %v, startup %v, %d chunks of %vs",
			*p, res.RebufferSec, res.StartupDelay, n, m.ChunkSec)
	}
	if d := elapsed.Seconds() - p.elapsed; math.Abs(d) > 1e-9*float64(n+1) {
		t.Fatalf("clock ran %v, ledger counted %vs", elapsed, p.elapsed)
	}
	next := first
	bytes := 0
	for _, cr := range res.Chunks {
		if cr.Chunk < next {
			t.Fatalf("chunk %d played after chunk %d", cr.Chunk, next-1)
		}
		next = cr.Chunk + 1
		var bits float64
		for ti, l := range cr.Levels {
			if cr.Stale == nil || !cr.Stale[ti] {
				b := m.Chunks[cr.Chunk].Tiles[ti].Bits[l]
				bits += b
				bytes += int(b) / 8
			}
		}
		if bits != cr.Bits {
			t.Fatalf("chunk %d delivered %v bits, its tiles at the levels fetched hold %v", cr.Chunk, cr.Bits, bits)
		}
	}
	if n+res.LiveSkippedChunks != next-first {
		t.Fatalf("chunks %d..%d: %d played, %d skipped", first, next-1, n, res.LiveSkippedChunks)
	}
	if bytes != res.TotalBytes {
		t.Fatalf("delivered %d bytes, its tiles at the levels fetched hold %d", res.TotalBytes, bytes)
	}
}

// TestVirtualSessionsCountEverySecondOnce: sixteen VOD sessions over
// VirtualNet — a link swinging between a fraction and a multiple of the
// top rate, attempt deadlines on, pacing on, chaos on and off — hold
// checkSession's invariants, and between them both stall and idle.
func TestVirtualSessionsCountEverySecondOnce(t *testing.T) {
	m := fixture(t).man
	top := topRate(m) / 1e6
	swing := &nettrace.Trace{Mbps: []float64{0.3 * top, 2 * top, 0.2 * top, 3 * top, 0.5 * top, 4 * top}}
	var stalled, idled bool
	for seed := uint64(1); seed <= 8; seed++ {
		for _, rule := range []chaos.Rule{{}, {ErrorRate: 0.1, AbortRate: 0.05, TruncateRate: 0.05,
			StallRate: 0.05, StallFor: 80 * time.Millisecond, Latency: 5 * time.Millisecond, Jitter: 10 * time.Millisecond}} {
			clk := NewVirtualClock(float64(seed))
			start := clk.Now()
			vn := &VirtualNet{Video: m, Clock: clk, Link: &nettrace.Link{Trace: swing, RTTSec: 0.02},
				Fault: rule, Seed: seed, ManifestBits: 8e4}
			res, err := RunSession(context.Background(), vn, fixture(t).tr, StreamConfig{
				BufferTargetSec: 1, MaxBufferSec: 1.5, Clock: clk, Fetch: FetchPolicy{Seed: seed},
			})
			if err != nil {
				t.Fatal(err)
			}
			elapsed := clk.Since(start)
			checkSession(t, res, 0, elapsed)
			if len(res.Chunks) != m.NumChunks() {
				t.Fatalf("seed %d: streamed %d of %d chunks", seed, len(res.Chunks), m.NumChunks())
			}
			stalled = stalled || res.RebufferSec > 0
			played := res.StartupDelay
			for _, cr := range res.Chunks[1:] {
				played += cr.Download
			}
			idled = idled || elapsed > played
		}
	}
	if !stalled || !idled {
		t.Fatalf("stalled %v, idled %v: the sessions exercise too little of the ledger", stalled, idled)
	}
}

// TestLiveWaitBeforeTheFirstChunkIsStartup: a live session that polls an
// empty head for two refreshes starts when chunk 0 is published, then
// waits at the edge longer than its buffer holds. The wait before the
// first chunk is startup — in StartupDelay and LiveEdgeWaitSec, not in
// RebufferSec or the rebuffer counter — and only what the buffer could
// not cover of the wait after it is a stall.
func TestLiveWaitBeforeTheFirstChunkIsStartup(t *testing.T) {
	full := fixture(t).man
	empty := liveCopy(full, 0, 1, true)
	head := liveCopy(full, 1, 2, true)
	tp := &scriptedTransport{full: full, script: []*manifest.Video{
		empty, empty, head, // two polls before chunk 0
		head, head, head, head, liveCopy(full, 3, 3, false), // five after it
	}}
	clk := NewVirtualClock(0)
	poll := 300 * time.Millisecond
	reg := obs.NewRegistry()
	res, err := RunSession(context.Background(), tp, fixture(t).tr, StreamConfig{
		Clock: clk, Obs: reg, Live: LivePolicy{PollInterval: poll, EdgeTimeout: 10 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkSession(t, res, 0, clk.Since(time.Unix(0, 0)))
	if len(res.Chunks) != 3 {
		t.Fatalf("streamed %d chunks, want 3", len(res.Chunks))
	}
	if res.StartupDelay != 2*poll {
		t.Errorf("StartupDelay %v, want the %v waited before chunk 0", res.StartupDelay, 2*poll)
	}
	if want := (7 * poll).Seconds(); math.Abs(res.LiveEdgeWaitSec-want) > 1e-12 || res.LiveEdgeWaits != 2 {
		t.Errorf("%d waits of %vs at the edge, want 2 of %vs", res.LiveEdgeWaits, res.LiveEdgeWaitSec, want)
	}
	if want := (5 * poll).Seconds() - full.ChunkSec; res.RebufferSec != want {
		t.Errorf("RebufferSec %v, want %v: the wait after chunk 0 past its buffer, none of the wait before", res.RebufferSec, want)
	}
	for _, s := range reg.Snapshot() {
		if s.Name == "pano_client_rebuffer_seconds_total" && s.Value != res.RebufferSec {
			t.Errorf("%s = %v, want %v", s.Name, s.Value, res.RebufferSec)
		}
	}
	liveCountersMatch(t, reg, res, 0)
}

// TestTheFirstChunkGetsTheStartupDeadline: whichever chunk a session
// starts at — chunk 0, a manifest's FirstChunk 2, or the edge a live
// join skips to — its first chunk's tiles are fetched under the startup
// deadline (AttemptTimeout), not the empty buffer's MinAttemptTimeout:
// with 300 ms tiles, none of them is retried.
func TestTheFirstChunkGetsTheStartupDeadline(t *testing.T) {
	full := fixture(t).man
	later := liveCopy(full, full.NumChunks(), 0, false)
	later.FirstChunk = 2
	for _, tc := range []struct {
		name  string
		m     *manifest.Video
		first int // the first chunk streamed
	}{
		{"chunk 0", full, 0},
		{"FirstChunk 2", later, 2},
		{"live join at the edge", liveCopy(full, 3, 1, true), 2},
	} {
		clk := NewVirtualClock(0)
		tp := &scriptedTransport{full: full, script: []*manifest.Video{tc.m}, clk: clk, tileDelay: 300 * time.Millisecond}
		res, err := RunSession(context.Background(), tp, fixture(t).tr, StreamConfig{
			Clock: clk, MaxChunks: 1, Live: LivePolicy{MaxLatencyChunks: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		checkSession(t, res, tc.m.FirstChunk, clk.Since(time.Unix(0, 0)))
		if len(res.Chunks) != 1 || res.Chunks[0].Chunk != tc.first {
			t.Fatalf("%s: streamed %+v, want chunk %d", tc.name, res.Chunks, tc.first)
		}
		if cr := res.Chunks[0]; cr.Retries != 0 || cr.Skipped != 0 {
			t.Errorf("%s: first chunk %d retried %d and skipped %d of its tiles", tc.name, cr.Chunk, cr.Retries, cr.Skipped)
		}
	}
}
