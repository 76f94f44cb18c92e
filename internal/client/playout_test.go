package client

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"pano/internal/chaos"
	"pano/internal/manifest"
	"pano/internal/mathx"
	"pano/internal/nettrace"
	"pano/internal/obs"
)

// The ledger's moves, as the property test and FuzzPlayout drive them:
// the clock runs d and the ledger reads it (opRead, or opJitter at an odd
// nanosecond, as a wall clock reads), a chunk of d lands, or the ledger
// idles to a cap of d and the clock sleeps what it asks (opIdle) or past
// it (opOversleep).
const (
	opRead = iota
	opLand
	opIdle
	opJitter
	opOversleep
	numOps
)

// ledger is a playout ledger started at its virtual clock's epoch, and
// the moves step has made on it.
type ledger struct {
	p     playout
	clk   *VirtualClock
	moves int
}

func newLedger() *ledger {
	clk := NewVirtualClock(0)
	return &ledger{p: playout{at: clk.Now()}, clk: clk}
}

// step applies one move to l and fails t unless the ledger's rules hold
// across it, exactly: every nanosecond counted once (elapsed + buffer ==
// startup + media + stall), elapsed the clock's span from the start to
// the last reading, a buffer never negative or over a pacing cap, no
// stall before the first chunk has landed and no startup after, and what
// a move returns being what it added.
func step(t testing.TB, l *ledger, op int, d time.Duration) {
	t.Helper()
	p := &l.p
	before := *p
	switch op {
	case opRead, opJitter:
		if op == opJitter {
			d += time.Duration(int64(d) % 997)
		}
		l.clk.Advance(d)
		stall := p.read(l.clk)
		if p.at != l.clk.Now() || p.stall != before.stall+stall {
			t.Fatalf("read after %v: at %v (clock %v), returned stall %v, the ledger went from %v to %v",
				d, p.at, l.clk.Now(), stall, before.stall, p.stall)
		}
		if !before.started && stall != 0 {
			t.Fatalf("read after %v stalled %v before the first chunk landed", d, stall)
		}
	case opLand:
		if first := p.land(d); first != !before.started {
			t.Fatalf("land: first %v after started %v", first, before.started)
		}
	case opIdle, opOversleep:
		sleep := p.idleTo(d)
		idle := before.buffer - p.buffer
		if idle < 0 || (d > 0 && p.buffer > d) || p.elapsed != before.elapsed+idle ||
			sleep != idle || p.at != before.at.Add(sleep) {
			t.Fatalf("idleTo(%v) from buffer %v: sleep %v, buffer %v, at %v from %v", d, before.buffer, sleep, p.buffer, p.at, before.at)
		}
		if op == opOversleep {
			sleep += time.Millisecond + sleep/4 // counted at the next reading
		}
		l.clk.Advance(sleep)
	}
	l.moves++
	if p.buffer < 0 || p.stall < before.stall || p.startup < before.startup {
		t.Fatalf("after op %d(%v): %+v from %+v", op, d, *p, before)
	}
	if before.started && p.startup != before.startup {
		t.Fatalf("startup grew after the first chunk landed: %+v from %+v", *p, before)
	}
	checkIdentity(t, p)
	if span := p.at.Sub(time.Unix(0, 0)); p.elapsed != span {
		t.Fatalf("after %d moves the ledger counted %v, the clock read %v from the start", l.moves, p.elapsed, span)
	}
}

// checkIdentity fails t unless p counts every nanosecond once.
func checkIdentity(t testing.TB, p *playout) {
	t.Helper()
	if p.elapsed+p.buffer != p.startup+p.media+p.stall {
		t.Fatalf("elapsed %v + buffer %v != startup %v + media %v + stall %v",
			p.elapsed, p.buffer, p.startup, p.media, p.stall)
	}
}

// TestPlayoutCountsEverySecondOnce drives the ledger through seeded
// random sessions — a manifest fetch, live waits before and between
// chunks, downloads of any length read at any nanosecond, chunks of any
// length, pacing caps above and below the buffer, sleeps that overrun
// them — holding step's rules at every move.
func TestPlayoutCountsEverySecondOnce(t *testing.T) {
	rng := mathx.NewRNG(0x91a7)
	sec := func(lo, hi float64) time.Duration { return nettrace.Nanos(rng.Range(lo, hi)) }
	for s := 0; s < 500; s++ {
		l := newLedger()
		step(t, l, opRead, sec(0, 0.2))
		chunk := sec(0.25, 2)
		capped := []time.Duration{0, sec(0, 4)}[rng.Intn(2)]
		for c := rng.Intn(40); c > 0; c-- {
			for w := rng.Intn(3); w > 0 && rng.Intn(3) == 0; w-- {
				step(t, l, opRead, sec(0, 1.5))
			}
			step(t, l, []int{opRead, opJitter}[rng.Intn(2)], sec(0, 3*chunk.Seconds()))
			step(t, l, opLand, chunk)
			step(t, l, []int{opIdle, opOversleep}[rng.Intn(2)], capped)
		}
	}
}

// FuzzPlayout holds the ledger to step's rules under arbitrary move
// sequences: each three input bytes are a move (first byte mod numOps)
// and its span (the next two, big-endian, in 1/1024 s, rounded to the
// nanosecond). The committed seeds under testdata/fuzz/FuzzPlayout/ are
// the shapes a session takes: a wait before the first chunk, a stall
// after it, an idle to a cap, a paced VOD session, and a wall-clock one
// whose readings jitter and whose idles oversleep.
func FuzzPlayout(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		l := newLedger()
		for ; len(data) >= 3; data = data[3:] {
			step(t, l, int(data[0])%numOps, nettrace.Nanos(float64(uint16(data[1])<<8|uint16(data[2]))/1024))
		}
	})
}

// checkSession fails t unless the session res, which began at chunk
// first and ran for elapsed on a virtual clock, holds checkLedger's
// rules, plays every chunk once or counts it as skipped, and delivered
// exactly the tile sizes at the levels it fetched.
func checkSession(t *testing.T, res *StreamResult, first int, elapsed time.Duration) {
	t.Helper()
	checkLedger(t, res, elapsed)
	m, n := res.Manifest, len(res.Chunks)
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

// checkLedger fails t unless the session res, whose clock ran for
// elapsed from its start to its ledger's last reading, counts every
// nanosecond once: its ledger's identity, the ledger agreeing with the
// session's own figures and with the clock, exactly.
func checkLedger(t *testing.T, res *StreamResult, elapsed time.Duration) {
	t.Helper()
	p, m := &res.play, res.Manifest
	checkIdentity(t, p)
	n := len(res.Chunks)
	if p.stall.Seconds() != res.RebufferSec || p.startup != res.StartupDelay ||
		p.media != time.Duration(n)*nettrace.Nanos(m.ChunkSec) {
		t.Fatalf("ledger %+v; session: rebuffer %v, startup %v, %d chunks of %vs",
			*p, res.RebufferSec, res.StartupDelay, n, m.ChunkSec)
	}
	if elapsed != p.elapsed {
		t.Fatalf("clock ran %v, ledger counted %v", elapsed, p.elapsed)
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
// not cover of the wait after it is a stall. A refresh that takes time
// is wait time like the poll interval before it.
func TestLiveWaitBeforeTheFirstChunkIsStartup(t *testing.T) {
	full := fixture(t).man
	empty := liveCopy(full, 0, 1, true)
	head := liveCopy(full, 1, 2, true)
	poll := 300 * time.Millisecond
	for _, refresh := range []time.Duration{0, 40 * time.Millisecond} {
		clk := NewVirtualClock(0)
		tp := &scriptedTransport{full: full, clk: clk, manifestDelay: refresh, script: []*manifest.Video{
			empty, empty, head, // two polls before chunk 0
			head, head, head, head, liveCopy(full, 3, 3, false), // five after it
		}}
		reg := obs.NewRegistry()
		res, err := RunSession(context.Background(), tp, fixture(t).tr, StreamConfig{
			Clock: clk, Obs: reg, Live: LivePolicy{PollInterval: poll, EdgeTimeout: 10 * time.Second},
		})
		if err != nil {
			t.Fatal(err)
		}
		checkSession(t, res, 0, clk.Since(time.Unix(0, 0)))
		if len(res.Chunks) != 3 {
			t.Fatalf("refresh %v: streamed %d chunks, want 3", refresh, len(res.Chunks))
		}
		if want := refresh + 2*(poll+refresh); res.StartupDelay != want {
			t.Errorf("refresh %v: StartupDelay %v, want the manifest and the %v waited before chunk 0", refresh, res.StartupDelay, want)
		}
		if want := (7 * (poll + refresh)).Seconds(); math.Abs(res.LiveEdgeWaitSec-want) > 1e-12 || res.LiveEdgeWaits != 2 {
			t.Errorf("refresh %v: %d waits of %vs at the edge, want 2 of %vs", refresh, res.LiveEdgeWaits, res.LiveEdgeWaitSec, want)
		}
		if want := (5*(poll+refresh) - nettrace.Nanos(full.ChunkSec)).Seconds(); res.RebufferSec != want {
			t.Errorf("refresh %v: RebufferSec %v, want %v: the wait after chunk 0 past its buffer, none of the wait before", refresh, res.RebufferSec, want)
		}
		for _, s := range reg.Snapshot() {
			if s.Name == "pano_client_rebuffer_seconds_total" && s.Value != res.RebufferSec {
				t.Errorf("refresh %v: %s = %v, want %v", refresh, s.Name, s.Value, res.RebufferSec)
			}
		}
		liveCountersMatch(t, reg, res, 0)
	}
}

// TestWallClockSessionCountsEverySecondOnce: a loopback HTTP session on
// the wall clock, where estimating, planning and scoring a chunk take
// time, counts every nanosecond once: its ledger's elapsed is the clock
// from the session's start to the ledger's last reading, the session's
// last, exactly — monotonic readings subtract as integers.
func TestWallClockSessionCountsEverySecondOnce(t *testing.T) {
	ts := testServer(t)
	var mu sync.Mutex
	var first, last time.Time
	defer SetWallNow(func() time.Time {
		now := time.Now()
		mu.Lock()
		defer mu.Unlock()
		if first.IsZero() {
			first = now
		}
		last = now
		return now
	})()
	res, err := New(ts.URL).Stream(context.Background(), fixture(t).tr, StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chunks) != res.Manifest.NumChunks() {
		t.Fatalf("streamed %d of %d chunks", len(res.Chunks), res.Manifest.NumChunks())
	}
	checkLedger(t, res, last.Sub(first))
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
