package swarm

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"syscall"
	"time"

	"pano/internal/chaos"
	"pano/internal/client"
	"pano/internal/codec"
	"pano/internal/fleet"
	"pano/internal/manifest"
	"pano/internal/nettrace"
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
	// session of the worker adds to, and this session's draw counters.
	w *scratch
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
}

func newNetem(m *manifest.Video, objects *objectIndex, clk *VirtualClock, link *nettrace.Link, fault chaos.Rule, seed uint64, manifestBits float64, w *scratch) *netem {
	n := objects.len()
	w.seq = slices.Grow(w.seq[:0], n)[:n]
	clear(w.seq)
	return &netem{
		m: m, objects: objects, clock: clk, link: link, fault: fault, seed: seed,
		manifestBits: manifestBits,
		w:            w,
	}
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
	s.hit()
	cost, ferr := s.plan(s.draw(k, ti, l), bits, s.clock.NowSec())
	if err := s.advance(ctx, seconds(cost)); err != nil {
		return 0, err
	}
	if ferr != nil {
		return 0, ferr
	}
	return bits, nil
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

// plan maps one attempt's fault outcome, sent at virtual time now, to
// its virtual-time cost and terminal error, without moving the clock.
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
			sf := s.fault.StallFor
			if sf <= 0 {
				sf = 250 * time.Millisecond
			}
			dl += sf.Seconds()
		}
		cost += dl
	}
	return cost, ferr
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
// races them (race).
func (s *netem) fleetTile(ctx context.Context, k, ti int, l codec.Level, bits float64) (float64, error) {
	fs := s.fleet
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
		answered, err := s.race(ctx, &lad, now, k, ti, l, bits)
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

// flight is one request of a rung: when it leaves and when it would
// complete, both after the rung starts, and how it ends.
type flight struct {
	hedge    bool
	from, to time.Duration
	err      error
}

// send prices one request to shard o leaving at virtual time t: how
// long it takes and how it ends. A shard inside its outage window resets
// the connection after a header round trip; a live one serves the
// primary under the object's fault plan and a hedge as a clean transfer.
func (s *netem) send(o int, t float64, hedge bool, k, ti int, l codec.Level, bits float64) (time.Duration, error) {
	s.fleet.reqs[o]++
	s.hit()
	var cost float64
	var err error
	switch {
	case s.fleet.down(o, t):
		cost, err = s.link.DownloadTime(t, 0), errConnReset
	case hedge:
		cost = s.link.DownloadTime(t, bits)
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
func (s *netem) race(ctx context.Context, lad *fleet.Ladder, now time.Time, k, ti int, l codec.Level, bits float64) (bool, error) {
	fs := s.fleet
	left := time.Duration(math.MaxInt64)
	if dl, ok := client.VirtualDeadline(ctx); ok {
		left = dl.Sub(now)
	}
	t := s.clock.NowSec()
	var p, h flight
	p.to, p.err = s.send(lad.Origin(), t, false, k, ti, l, bits)
	fl, n := [2]*flight{&p, &h}, 1
	if d, ok := lad.HedgeDelay(); ok && p.to > d && d < left {
		switch lad.Hedge(now.Add(d)) {
		case fleet.Admitted:
			fs.hedges++
			h.hedge, h.from = true, d
			h.to, h.err = s.send(lad.Backup(), t+d.Seconds(), true, k, ti, l, bits)
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
	}
	s.clock.AdvanceTo(last)
	if !answered && fl[n-1].to > left {
		return false, context.DeadlineExceeded
	}
	return answered, nil
}
