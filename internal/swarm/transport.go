package swarm

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"syscall"
	"time"

	"pano/internal/abr"
	"pano/internal/chaos"
	"pano/internal/client"
	"pano/internal/codec"
	"pano/internal/fleet"
	"pano/internal/manifest"
	"pano/internal/nettrace"
	"pano/internal/trace"
)

// errConnReset is the virtual transport's connection-abort error; it
// wraps syscall.ECONNRESET so the client's errorClass buckets it like
// a real killed connection.
var errConnReset = fmt.Errorf("swarm: connection reset: %w", syscall.ECONNRESET)

// netem is one session's logical network: a nettrace link integrated
// in virtual time plus chaos fault draws, implementing
// client.Transport. Every failure mode maps onto the same error the
// HTTP transport would surface (StatusError, unexpected EOF, reset,
// DeadlineExceeded), so the client's retry ladder runs unchanged.
//
// It charges what the HTTP client pays. A chunk's planned requests go
// out as pipelined turns (client.Pipeliner), one per (chunk, shard):
// a turn pays the link RTT once, on its first answer, and prices its
// answers as sim's linkTransport prices a chunk (see answer). A reset,
// abort, truncation or deadline ends the turn, and the shard's next
// planned request opens a new one, RTT and all. Every request off a
// turn — retry, lowest-rung re-fetch, failover, hedge — pays its own
// RTT, priced as before (plan, send).
//
// At one origin that is the HTTP Client's charge, held to a loopback
// wire by TestTurnsMatchLoopback. In the fleet twin a shard's turn opens
// when the ladder first reaches one of its planned tiles: the charge of
// a client with one pipelined connection per origin shard that sends a
// shard's turn then. The repo has no such client (Client.Stream
// pipelines to one base URL, fleet.Fetch sends one request at a time)
// and no wire test checks those turns; a client that sent every shard's
// turn at once would pay one RTT where the twin charges one per shard.
type netem struct {
	m            *manifest.Video
	clock        *VirtualClock
	link         *nettrace.Link
	fault        chaos.Rule
	seed         uint64
	manifestBits float64

	objects    *objectIndex
	originReqs int64
	// fleet, when set, shards objects across virtual origins and walks
	// each tile through the fleet's ladder (fleetTile).
	fleet *fleetSim
	// w is the calling worker's scratch: the load histogram every
	// session of the worker adds to, and this session's draw counters
	// and turns.
	w *scratch

	// chunk is the running chunk (Turn); opened counts the session's
	// turns.
	chunk  int
	opened int64
}

// turn is one shard's pipelined turn within the chunk. It opens at the
// first planned request the shard answers. It has held the link since
// start (virtual time past the epoch) — since it opened, or since it
// resumed after other requests took the link, warm — and carried bits
// and server delay since; req is the origin request its last answer was.
type turn struct {
	open, warm  bool
	start       time.Duration
	bits, delay float64
	req         int64
}

// objectIndex numbers a manifest's (chunk, tile, level) objects densely,
// chunk by chunk. Chunks may differ in tile count (Pano tiles each chunk
// on its own), so the table is per-chunk offsets, not a stride. One per
// run, immutable: netem's draw counters and placement's ring orders are
// both flat slices over it.
type objectIndex struct {
	firstTile []int // firstTile[k] = tiles in chunks before k; len = chunks+1
}

func newObjectIndex(m *manifest.Video) *objectIndex {
	x := &objectIndex{firstTile: make([]int, m.NumChunks()+1)}
	for k := range m.Chunks {
		x.firstTile[k+1] = x.firstTile[k] + len(m.Chunks[k].Tiles)
	}
	return x
}

// len is the number of objects.
func (x *objectIndex) len() int { return x.firstTile[len(x.firstTile)-1] * codec.NumLevels }

// tilesIn is chunk k's tile count.
func (x *objectIndex) tilesIn(k int) int { return x.firstTile[k+1] - x.firstTile[k] }

func (x *objectIndex) at(k, ti int, l codec.Level) int {
	return (x.firstTile[k]+ti)*codec.NumLevels + int(l)
}

// scratch is one worker's reusable state. Sessions run one after
// another on a worker, so they share it instead of allocating their own.
type scratch struct {
	// load buckets origin requests per virtual second, summed over the
	// worker's sessions (integer adds commute, so the merged histogram
	// is deterministic regardless of which worker ran which session).
	load []int64
	// seq is the running session's per-object request count — the fault
	// draw index — over objectIndex; newNetem zeroes it.
	seq []uint32
	// planned is the running chunk's plan, an entry set to -1 once its
	// request has gone out; turns is one turn per shard.
	planned abr.Allocation
	turns   []turn
}

func newNetem(m *manifest.Video, objects *objectIndex, clk *VirtualClock, link *nettrace.Link, fault chaos.Rule, seed uint64, manifestBits float64, w *scratch) *netem {
	n := objects.len()
	w.seq = slices.Grow(w.seq[:0], n)[:n]
	clear(w.seq)
	return &netem{
		m: m, objects: objects, clock: clk, link: link, fault: fault, seed: seed,
		manifestBits: manifestBits,
		w:            w,
		chunk:        -1,
	}
}

// Turn implements client.Pipeliner: chunk k's planned requests go out,
// and every shard's turn starts afresh.
func (s *netem) Turn(_ context.Context, k int, alloc abr.Allocation, _ []trace.Reserved) {
	n := 1
	if s.fleet != nil {
		n = s.fleet.cfg.Origins
	}
	s.w.turns = slices.Grow(s.w.turns[:0], n)[:n]
	clear(s.w.turns)
	s.w.planned = append(s.w.planned[:0], alloc...)
	s.chunk = k
}

// claim reports whether (k, ti, l) is tile ti's planned request of the
// running chunk, not yet sent; it is sent now.
func (s *netem) claim(k, ti int, l codec.Level) bool {
	if k != s.chunk || s.w.planned[ti] != l {
		return false
	}
	s.w.planned[ti] = -1
	return true
}

// Target implements client.Transport.
func (s *netem) Target() string { return "swarm://netem" }

// hit records one origin request at the current virtual second.
func (s *netem) hit() {
	s.originReqs++
	sec := int(s.clock.NowSec())
	if sec >= len(s.w.load) {
		s.w.load = append(s.w.load, make([]int64, sec+1-len(s.w.load))...)
	}
	s.w.load[sec]++
}

// Manifest implements client.Transport: one logical GET over the link.
// Manifest faults are not modelled — swarm sessions always start. In
// fleet mode the request lands on the manifest's first live shard in
// ring order (falling back to its owner: manifests survive whole-fleet
// outages through the edge cache, so startup is never blocked).
func (s *netem) Manifest(ctx context.Context) (*manifest.Video, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.fleet != nil {
		shard := s.fleet.place.manifest[0]
		for _, o := range s.fleet.place.manifest {
			if !s.fleet.down(o, s.clock.NowSec()) {
				shard = o
				break
			}
		}
		s.fleet.reqs[shard]++
	}
	s.hit()
	s.clock.AdvanceSec(s.link.DownloadTime(s.clock.NowSec(), s.manifestBits))
	return s.m, nil
}

// tileKey packs a tile identity into the fault draw key (high bit set
// so tile and manifest streams never collide).
func tileKey(k, ti int, l codec.Level) uint64 {
	return 1<<63 | uint64(k)<<24 | uint64(ti)<<4 | uint64(l)
}

// Tile implements client.Transport: resolve the chunk's fault plan for
// this attempt, integrate the link for the transfer time, honour the
// attempt's virtual deadline, and return the delivered bits (exactly
// the manifest's, floats untouched) or the mapped failure. In fleet
// mode the attempt walks the fleet's ladder instead (fleetTile).
func (s *netem) Tile(ctx context.Context, k, ti int, l codec.Level) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	bits := s.m.Chunks[k].Tiles[ti].Bits[l]
	if s.fleet != nil {
		return s.fleetTile(ctx, k, ti, l, bits)
	}
	inTurn := s.claim(k, ti, l)
	s.hit()
	var cost time.Duration
	var ferr error
	if inTurn {
		cost, ferr = s.answer(0, s.draw(k, ti, l), bits)
	} else {
		c, err := s.plan(s.draw(k, ti, l), bits, s.clock.NowSec())
		cost, ferr = seconds(c), err
	}
	if err := s.advance(ctx, cost); err != nil {
		if inTurn {
			s.w.turns[0].open = false // the client hangs up on an expired read
		}
		return 0, err
	}
	if ferr != nil {
		return 0, ferr
	}
	return bits, nil
}

// answer prices the answer to a planned request on shard o's turn,
// asked for now: its cost from now and how it ends. While the turn holds
// the link its answers are priced as linkTransport prices a chunk: the
// link integrated from the turn's start over the bits carried since,
// with the RTT once, plus the server's delays since (chaos latency and
// stalls: the server answers a pipeline serially). When other requests
// took the link in between, the turn resumes from now, warm: its data
// has long been on the way, so the RTT is not paid again. A reset,
// abort or truncation ends the turn; a 500 does not (the server keeps
// the connection).
func (s *netem) answer(o int, out chaos.Outcome, bits float64) (time.Duration, error) {
	now := s.clock.Elapsed()
	tn := &s.w.turns[o]
	switch {
	case !tn.open:
		*tn = turn{open: true, start: now}
		s.opened++
	case tn.req != s.originReqs-1:
		*tn = turn{open: true, warm: true, start: now}
	}
	tn.req = s.originReqs
	tn.delay += out.Latency.Seconds()
	var ferr error
	switch {
	case out.Abort:
		ferr = errConnReset
	case out.Error500:
		ferr = &client.StatusError{Code: 500}
	default:
		if out.Truncate {
			bits, ferr = bits/2, io.ErrUnexpectedEOF // half the body arrives, then the connection dies
		}
		if out.Stall {
			tn.delay += s.stallFor().Seconds()
		}
		tn.bits += bits
	}
	dl := s.link.DownloadTime(tn.start.Seconds(), tn.bits)
	if s.fault.ThrottleBps > 0 {
		dl = max(dl, tn.bits/s.fault.ThrottleBps+s.link.RTTSec)
	}
	if tn.warm {
		dl -= s.link.RTTSec
	}
	done := tn.start + seconds(tn.delay+dl)
	if ferr != nil && !out.Error500 {
		tn.open = false
	}
	return max(0, done-now), ferr
}

// draw consumes the object's next fault-draw index. The counter is
// per-session and advances once per origin attempt, so outcomes are
// deterministic regardless of which shard serves which attempt.
func (s *netem) draw(k, ti int, l codec.Level) chaos.Outcome {
	n := &s.w.seq[s.objects.at(k, ti, l)]
	o := s.fault.Draw(s.seed, tileKey(k, ti, l), uint64(*n))
	*n++
	return o
}

// plan maps one request off a turn, sent at virtual time now, to its
// virtual-time cost — its own RTT included — and terminal error,
// without moving the clock.
func (s *netem) plan(o chaos.Outcome, bits, now float64) (float64, error) {
	cost := o.Latency.Seconds()
	var ferr error
	switch {
	case o.Abort:
		cost += s.link.DownloadTime(now+cost, 0) // header round-trip, then reset
		ferr = errConnReset
	case o.Error500:
		cost += s.link.DownloadTime(now+cost, 0)
		ferr = &client.StatusError{Code: 500}
	default:
		dl := s.link.DownloadTime(now+cost, bits)
		if s.fault.ThrottleBps > 0 {
			if paced := bits/s.fault.ThrottleBps + s.link.RTTSec; paced > dl {
				dl = paced
			}
		}
		if o.Truncate {
			dl *= 0.5 // half the body arrives, then the connection dies
			ferr = io.ErrUnexpectedEOF
		}
		if o.Stall {
			dl += s.stallFor().Seconds()
		}
		cost += dl
	}
	return cost, ferr
}

// stallFor is the fault rule's mid-body stall.
func (s *netem) stallFor() time.Duration {
	if s.fault.StallFor <= 0 {
		return 250 * time.Millisecond
	}
	return s.fault.StallFor
}

// seconds converts a cost in seconds to a duration.
func seconds(cost float64) time.Duration { return time.Duration(cost * float64(time.Second)) }

// advance moves the clock by d, honouring the attempt's virtual
// deadline: an over-deadline transfer is observed as a timeout at the
// deadline, not at completion.
func (s *netem) advance(ctx context.Context, d time.Duration) error {
	done := s.clock.Now().Add(d)
	if dl, ok := client.VirtualDeadline(ctx); ok && done.After(dl) {
		s.clock.AdvanceTo(dl)
		return context.DeadlineExceeded
	}
	s.clock.AdvanceTo(done)
	return nil
}

// fleetTile walks the object's fleet.Ladder — the policy fleet.Fetch
// runs — in virtual time. The ladder picks the shards, admits the
// requests and decides the hedges; this side prices them (send) and
// races them (race). The tile's planned request rides its shard's turn
// in the first round; later rounds and hedges are fresh requests.
func (s *netem) fleetTile(ctx context.Context, k, ti int, l codec.Level, bits float64) (float64, error) {
	fs := s.fleet
	inTurn := s.claim(k, ti, l)
	fs.walks++
	var lad fleet.Ladder
	fs.pol.Start(&lad, fs.place.tileOrder(k, ti, l), s.seed^tileKey(k, ti, l)^fs.walks*0x9e3779b97f4a7c15)
	defer lad.End()
	for {
		now := s.clock.Now()
		switch lad.Next(now) {
		case fleet.Backoff:
			if err := s.advance(ctx, lad.Backoff()); err != nil {
				return 0, err
			}
			continue
		case fleet.Dry:
			fs.budgetDenied++
			return 0, lad.Err()
		case fleet.Exhausted:
			return 0, lad.Err()
		}
		answered, err := s.race(ctx, &lad, now, k, ti, l, bits, inTurn)
		inTurn = false // later rounds fail over: fresh requests
		if err != nil {
			return 0, err
		}
		if answered {
			if lad.Failover() {
				fs.failovers++
			}
			return bits, nil
		}
	}
}

// flight is one request of a rung: the shard it goes to, whether it is
// a hedge or a planned request on the shard's turn, when it leaves and
// when it would complete, both after the rung starts, and how it ends.
type flight struct {
	o           int
	hedge, turn bool
	from, to    time.Duration
	err         error
}

// send prices one request to shard o leaving at virtual time t: how
// long it takes and how it ends. A shard inside its outage window resets
// the connection after a header round trip (and ends its turn); a live
// one answers a planned request on its turn, serves any other primary
// under the object's fault plan, and a hedge as a clean transfer.
func (s *netem) send(o int, t float64, hedge, inTurn bool, k, ti int, l codec.Level, bits float64) (time.Duration, error) {
	s.fleet.reqs[o]++
	s.hit()
	var cost float64
	var err error
	switch {
	case s.fleet.down(o, t):
		if inTurn {
			s.w.turns[o].open = false
		}
		cost, err = s.link.DownloadTime(t, 0), errConnReset
	case hedge:
		cost = s.link.DownloadTime(t, bits)
	case inTurn:
		return s.answer(o, s.draw(k, ti, l), bits)
	default:
		cost, err = s.plan(s.draw(k, ti, l), bits, t)
	}
	return seconds(cost), err
}

// race runs the ladder's current rung: the primary and, when it is still
// in flight as the hedge delay expires, the admitted backup. Outcomes go
// to the ladder in completion order; the first answer wins and the loser
// is cancelled. Whatever is still in flight at the attempt's virtual
// deadline has failed — the twin's one timeout is the client's — and the
// rung ends there with DeadlineExceeded; otherwise the clock moves to the
// answer, or to the last failure.
func (s *netem) race(ctx context.Context, lad *fleet.Ladder, now time.Time, k, ti int, l codec.Level, bits float64, inTurn bool) (bool, error) {
	fs := s.fleet
	left := time.Duration(math.MaxInt64)
	if dl, ok := client.VirtualDeadline(ctx); ok {
		left = dl.Sub(now)
	}
	t := s.clock.NowSec()
	p := flight{o: lad.Origin(), turn: inTurn}
	var h flight
	p.to, p.err = s.send(p.o, t, false, inTurn, k, ti, l, bits)
	fl, n := [2]*flight{&p, &h}, 1
	if d, ok := lad.HedgeDelay(); ok && p.to > d && d < left {
		switch lad.Hedge(now.Add(d)) {
		case fleet.Admitted:
			fs.hedges++
			h.o, h.hedge, h.from = lad.Backup(), true, d
			h.to, h.err = s.send(h.o, t+d.Seconds(), true, false, k, ti, l, bits)
			h.to += d
			if n = 2; h.to < p.to {
				fl[0], fl[1] = &h, &p
			}
		case fleet.BudgetDry:
			fs.budgetDenied++
		}
	}
	var end time.Duration // when the answer came
	var last time.Time    // when the last request ended
	answered := false
	for _, f := range fl[:n] {
		out, err, at := fleet.Failed, f.err, f.to
		switch {
		case answered:
			out, err, at = fleet.Cancelled, nil, end
		case f.to > left:
			err, at = context.DeadlineExceeded, left
		case f.err == nil:
			out, end, answered = fleet.Answered, f.to, true
			if f.hedge {
				fs.hedgeWins++
			}
		}
		last = now.Add(at)
		lad.Resolve(f.hedge, out, err, last, at-f.from)
		if f.turn && (out == fleet.Cancelled || err == context.DeadlineExceeded) {
			s.w.turns[f.o].open = false // its answer is abandoned mid-stream
		}
	}
	s.clock.AdvanceTo(last)
	if !answered && fl[n-1].to > left {
		return false, context.DeadlineExceeded
	}
	return answered, nil
}
