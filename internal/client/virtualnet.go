package client

import (
	"context"
	"io"
	"slices"
	"syscall"
	"time"

	"pano/internal/abr"
	"pano/internal/chaos"
	"pano/internal/codec"
	"pano/internal/manifest"
	"pano/internal/nettrace"
)

// VirtualNet is one session's logical network, a nettrace link
// integrated on a VirtualClock plus chaos fault draws: the Transport of
// every simulated session, sim.Run's and each internal/swarm session's.
// Failures surface as the HTTP transport's do, so the fetch ladder runs
// unchanged. It charges what Client.Stream pays at one origin over h2c:
// a chunk's planned requests go out as one turn (Turner) that pays the
// RTT once, and every other request pays its own. A failed answer on
// the turn — a 500, an abort, a truncation — ends only its own request,
// as a stream reset does on the wire. internal/swarm's
// TestTurnsMatchLoopback holds this charge to a loopback wire, through
// an edge and through an edge in front of a fleet. Serve takes the
// server's answer as given, so the swarm's fleet twin prices a tile the
// fleet answered behind the front on the same one turn.
//
// Time has one base: an instant is the clock's offset, int64 nanoseconds
// past the epoch, and a span a time.Duration, summed exactly. Float
// seconds become time by one rounding rule, nettrace.Nanos (the nearest
// nanosecond), where a trace is integrated or a fault rule prices a
// transfer; they come back only at the result boundary.
//
// Two rules diverge from the wire, knowingly: a read that times out
// closes the turn (the next planned answer opens a new one, paying the
// RTT again), where the wire cancels that stream alone; and a turn's
// server delays are charged in series with its transfer, where the
// wire's concurrent requests overlap them. The exported fields configure
// the network; Reset readies it for another session.
type VirtualNet struct {
	Video *manifest.Video
	Clock *VirtualClock
	Link  *nettrace.Link
	// Fault is the rule every tile request's faults are drawn under,
	// seeded by Seed; the zero rule draws nothing.
	Fault chaos.Rule
	Seed  uint64
	// ManifestBits is what the manifest GET moves over the link; 0 means
	// the manifest is already on the client: no GET, no RTT.
	ManifestBits float64

	requests, opened int64 // see Requests and TurnsOpened
	// seq is each (chunk, tile, level) object's fault-draw count, with
	// firstTile[k] the tiles in chunks before k; built at the first draw.
	firstTile []int
	seq       []uint32
	// planned is the running chunk's plan, an entry set to -1 once its
	// request has gone out; tn is the chunk's turn.
	chunk   int
	planned abr.Allocation
	tn      turn
}

// turn is the chunk's turn: it has held the link since start (past the
// epoch; warm if it resumed after other requests took the link) and
// carried bits and server delay since; req is the request its last
// answer was.
type turn struct {
	open, warm bool
	start      time.Duration
	bits       float64
	delay      time.Duration
	req        int64
}

// Reset readies n for a new session, keeping its buffers.
func (n *VirtualNet) Reset() {
	n.requests, n.opened, n.chunk = 0, 0, 0
	n.firstTile, n.seq = n.firstTile[:0], n.seq[:0]
	n.planned, n.tn = n.planned[:0], turn{}
}

// Requests is the number of requests sent, the manifest GET included.
func (n *VirtualNet) Requests() int64 { return n.requests }

// TurnsOpened is the number of turns opened so far.
func (n *VirtualNet) TurnsOpened() int64 { return n.opened }

// Target implements Transport.
func (n *VirtualNet) Target() string { return "virtual://link" }

// Manifest implements Transport: one GET of ManifestBits over the link.
func (n *VirtualNet) Manifest(ctx context.Context) (*manifest.Video, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if n.ManifestBits > 0 {
		n.requests++
		n.Clock.Advance(n.Link.DownloadTime(n.Clock.off, n.ManifestBits))
	}
	return n.Video, nil
}

// Turn implements Turner: chunk k's planned requests go out on a fresh
// turn.
func (n *VirtualNet) Turn(_ context.Context, k int, alloc abr.Allocation) {
	n.tn = turn{}
	n.planned = append(n.planned[:0], alloc...)
	n.chunk = k
}

// Tile implements Transport: Serve, the server answering under the
// object's next fault draw.
func (n *VirtualNet) Tile(ctx context.Context, k, ti int, l codec.Level) (float64, error) {
	var out chaos.Outcome
	n.Draw(k, ti, l, &out)
	return n.Serve(ctx, k, ti, l, out)
}

// Serve is Tile with the server's answer given: out is how the server
// answers the request for (k, ti, l). Tile ti's planned request of the
// running chunk, the first time it is sent, is answered on the turn; any
// other is sent off it. The clock moves to the answer within the
// attempt's virtual deadline.
func (n *VirtualNet) Serve(ctx context.Context, k, ti int, l codec.Level, out chaos.Outcome) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	bits := n.Video.Chunks[k].Tiles[ti].Bits[l]
	inTurn := k == n.chunk && ti < len(n.planned) && n.planned[ti] == l
	if inTurn {
		n.planned[ti] = -1 // sent
	}
	var cost time.Duration
	var ferr error
	if inTurn {
		cost, ferr = n.answer(&out, bits)
	} else {
		cost, ferr = n.send(&out, bits)
	}
	if err := n.advance(ctx, cost); err != nil {
		if inTurn {
			n.tn.open = false // a timed-out read closes the turn (see VirtualNet)
		}
		return 0, err
	}
	if ferr != nil {
		return 0, ferr
	}
	return bits, nil
}

// TileKey packs a tile object's identity into its fault-draw key (high
// bit set so tile and manifest streams never collide).
func TileKey(k, ti int, l codec.Level) uint64 {
	return 1<<63 | uint64(k)<<24 | uint64(ti)<<4 | uint64(l)
}

// Draw consumes the object's next fault draw into out (see
// chaos.Rule.Draw). The count is per session and advances once per
// request, so outcomes are deterministic regardless of which origin
// serves which request.
func (n *VirtualNet) Draw(k, ti int, l codec.Level, out *chaos.Outcome) {
	if len(n.seq) == 0 && !n.countDraws() {
		*out = chaos.Outcome{}
		return
	}
	c := &n.seq[(n.firstTile[k]+ti)*codec.NumLevels+int(l)]
	seq := *c
	*c++
	n.Fault.Draw(n.Seed, TileKey(k, ti, l), uint64(seq), out)
}

// countDraws sizes seq, one zeroed count per object, at a session's first
// draw, and reports whether there are draws to count: the zero rule draws
// nothing.
func (n *VirtualNet) countDraws() bool {
	if n.Fault == (chaos.Rule{}) {
		return false
	}
	n.firstTile = append(n.firstTile[:0], 0)
	for c, ch := range n.Video.Chunks {
		n.firstTile = append(n.firstTile, n.firstTile[c]+len(ch.Tiles))
	}
	size := n.firstTile[len(n.Video.Chunks)] * codec.NumLevels
	n.seq = slices.Grow(n.seq[:0], size)[:size]
	clear(n.seq)
	return true
}

// answer prices the answer to a planned request on the turn, asked for
// now: its cost from now and how it ends. It is the link integrated from
// the turn's start over the bits carried since, the RTT once, plus the
// server's delays since (chaos latency and stalls, charged in series).
// When other requests took the link in between, the turn resumes from
// now, warm: its data has long been on the way, so the RTT is not paid
// again. A 500, an abort or a truncation ends its own request alone.
func (n *VirtualNet) answer(out *chaos.Outcome, bits float64) (time.Duration, error) {
	n.requests++
	now := n.Clock.off
	tn := &n.tn
	switch {
	case !tn.open:
		*tn = turn{open: true, start: now}
		n.opened++
	case tn.req != n.requests-1:
		*tn = turn{open: true, warm: true, start: now}
	}
	tn.req = n.requests
	tn.delay += out.Latency
	ferr := refusal(out)
	if ferr == nil {
		if out.Truncate {
			bits, ferr = bits/2, io.ErrUnexpectedEOF // half the body arrives, then the stream is reset
		}
		if out.Stall {
			tn.delay += n.Fault.Stall()
		}
		tn.bits += bits
	}
	dl := n.transfer(tn.start, tn.bits)
	if tn.warm {
		dl -= nettrace.Nanos(n.Link.RTTSec)
	}
	return max(0, tn.start+tn.delay+dl-now), ferr
}

// send prices one request off the turn, sent now: its cost, its own RTT
// included, and how it ends. It does not move the clock.
func (n *VirtualNet) send(out *chaos.Outcome, bits float64) (time.Duration, error) {
	n.requests++
	at := n.Clock.off + out.Latency
	if ferr := refusal(out); ferr != nil {
		return out.Latency + n.Link.DownloadTime(at, 0), ferr // a header round trip
	}
	var ferr error
	dl := n.transfer(at, bits)
	if out.Truncate {
		dl /= 2 // half the body arrives, then the stream is reset
		ferr = io.ErrUnexpectedEOF
	}
	if out.Stall {
		dl += n.Fault.Stall()
	}
	return out.Latency + dl, ferr
}

// transfer is how long bits sent at instant at take over the link, RTT
// included, and no less than the fault rule's throttle allows.
func (n *VirtualNet) transfer(at time.Duration, bits float64) time.Duration {
	dl := n.Link.DownloadTime(at, bits)
	if n.Fault.ThrottleBps > 0 {
		dl = max(dl, nettrace.Nanos(bits/n.Fault.ThrottleBps+n.Link.RTTSec))
	}
	return dl
}

// refusal is how a request the server refuses ends — reset before any
// byte (an abort) or answered 500 — and nil for any other.
func refusal(out *chaos.Outcome) error {
	switch {
	case out.Abort:
		return syscall.ECONNRESET
	case out.Error500:
		return &StatusError{Code: 500}
	}
	return nil
}

// advance moves the clock by d, honouring the attempt's virtual
// deadline: an over-deadline transfer is observed as a timeout at the
// deadline, not at completion.
func (n *VirtualNet) advance(ctx context.Context, d time.Duration) error {
	if at := deadlineOf(ctx); at != nil && n.Clock.off+d > at.dl {
		n.Clock.Advance(at.dl - n.Clock.off)
		return context.DeadlineExceeded
	}
	n.Clock.Advance(d)
	return nil
}
