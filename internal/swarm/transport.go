package swarm

import (
	"context"
	"fmt"
	"io"
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
	// fleet, when set, shards objects across virtual origins with
	// per-session breakers and ring failover; hedgeDelaySec > 0
	// additionally models fixed-delay hedged transfers (the adaptive p95
	// delay is a wall-clock construct and is not modelled here).
	fleet         *fleetSim
	hedgeDelaySec float64
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
// mode the attempt walks the object's ring order instead (fleetTile).
func (s *netem) Tile(ctx context.Context, k, ti int, l codec.Level) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	bits := s.m.Chunks[k].Tiles[ti].Bits[l]
	if s.fleet != nil {
		return s.fleetTile(ctx, k, ti, l, bits)
	}
	s.hit()
	cost, ferr := s.plan(s.draw(k, ti, l), bits)
	if err := s.advanceCost(ctx, cost); err != nil {
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

// plan maps one attempt's fault outcome to its virtual-time cost and
// terminal error, without moving the clock.
func (s *netem) plan(o chaos.Outcome, bits float64) (float64, error) {
	now := s.clock.NowSec()
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

// advanceCost moves the clock by cost seconds, honouring the attempt's
// virtual deadline: an over-deadline transfer is observed as a timeout
// at the deadline, not at completion.
func (s *netem) advanceCost(ctx context.Context, cost float64) error {
	done := s.clock.Now().Add(time.Duration(cost * float64(time.Second)))
	if dl, ok := client.VirtualDeadline(ctx); ok && done.After(dl) {
		s.clock.AdvanceTo(dl)
		return context.DeadlineExceeded
	}
	s.clock.AdvanceTo(done)
	return nil
}

// fleetTile walks the object's ring order: breaker-denied shards are
// skipped, a down shard costs a header round-trip and fails over, a
// fault on a live shard fails over too (the fleet ladder, not the
// client's, owns intra-fetch retries), and every step beyond the first
// spends retry budget. A transfer slower than the fixed hedge delay is
// raced against a modelled backup on the next live shard.
func (s *netem) fleetTile(ctx context.Context, k, ti int, l codec.Level, bits float64) (float64, error) {
	fs := s.fleet
	order := fs.place.tileOrder(k, ti, l)
	fs.budget.Earn()
	tried := 0
	var lastErr error
	for oi, shard := range order {
		adm, _ := fleet.Admit(fs.brks[shard], fs.budget, s.clock.Now(), tried > 0)
		if adm == fleet.BreakerDenied {
			continue
		}
		if adm == fleet.BudgetDry {
			fs.budgetDenied++
			break
		}
		tried++
		fs.reqs[shard]++
		s.hit()
		if fs.down(shard, s.clock.NowSec()) {
			// Hard outage: the reset costs a header round-trip.
			cost := s.link.DownloadTime(s.clock.NowSec(), 0)
			if err := s.advanceCost(ctx, cost); err != nil {
				fs.brks[shard].Failure(s.clock.Now())
				return 0, err
			}
			fs.brks[shard].Failure(s.clock.Now())
			lastErr = errConnReset
			continue
		}
		cost, ferr := s.plan(s.draw(k, ti, l), bits)
		if ferr == nil {
			cost = s.maybeHedge(order, oi, cost, bits)
		}
		if err := s.advanceCost(ctx, cost); err != nil {
			fs.brks[shard].Failure(s.clock.Now())
			return 0, err
		}
		if ferr != nil {
			fs.brks[shard].Failure(s.clock.Now())
			lastErr = ferr
			continue
		}
		fs.brks[shard].Success(s.clock.Now())
		if tried > 1 {
			fs.failovers++
		}
		return bits, nil
	}
	if lastErr == nil {
		// Every breaker was open (or the budget dried up before any
		// attempt landed): surface as a reset for the client ladder.
		lastErr = errConnReset
	}
	return 0, lastErr
}

// maybeHedge models a fixed-delay hedged transfer analytically: when
// the primary's planned transfer outlasts the hedge delay and a live
// backup shard plus budget exist, the backup's transfer (starting at
// now+delay over the same access link) races it and the faster time
// wins. The loser is cancelled, so it leaves no breaker signal.
func (s *netem) maybeHedge(order []int, oi int, cost, bits float64) float64 {
	fs := s.fleet
	if s.hedgeDelaySec <= 0 || cost <= s.hedgeDelaySec {
		return cost
	}
	backup := -1
	now := s.clock.Now()
	for i := oi + 1; i < len(order); i++ {
		if fs.brks[order[i]].Available(now) && !fs.down(order[i], s.clock.NowSec()) {
			backup = order[i]
			break
		}
	}
	if backup < 0 {
		return cost
	}
	if !fs.budget.Spend() {
		fs.budgetDenied++
		return cost
	}
	fs.hedges++
	fs.reqs[backup]++
	s.hit()
	if hcost := s.hedgeDelaySec + s.link.DownloadTime(s.clock.NowSec()+s.hedgeDelaySec, bits); hcost < cost {
		fs.hedgeWins++
		fs.brks[backup].Success(now)
		return hcost
	}
	return cost
}
