package swarm

import (
	"context"
	"math"
	"time"

	"pano/internal/chaos"
	"pano/internal/client"
	"pano/internal/codec"
	"pano/internal/fleet"
	"pano/internal/manifest"
	"pano/internal/nettrace"
)

// netem is one swarm session's logical network: client.VirtualNet, which
// sim.Run streams over and which prices every request, plus the fleet
// twin and the origin-load accounting. In the fleet twin a shard's
// planned requests ride its own turn, opened when the ladder first
// reaches one of them: the charge of a client with a pipeline per origin
// shard. The repo has no such client (Client.Stream pipelines to one
// base URL, fleet.Fetch sends one request at a time) and no wire test
// checks those turns.
type netem struct {
	*client.VirtualNet
	// fleet, when set, shards objects across virtual origins and walks
	// each tile through the fleet's ladder (fleetTile).
	fleet *fleetSim
	// w is the calling worker's scratch: the load histogram every
	// session of the worker adds to, and the network it reuses.
	w *scratch
}

// scratch is one worker's reusable state. Sessions run one after
// another on a worker, so they share it instead of allocating their own.
type scratch struct {
	// load buckets origin requests per virtual second, summed over the
	// worker's sessions (integer adds commute, so the merged histogram
	// is deterministic regardless of which worker ran which session).
	load []int64
	// net is the running session's network; newNetem resets it.
	net client.VirtualNet
}

func newNetem(m *manifest.Video, clk *client.VirtualClock, link *nettrace.Link, fault chaos.Rule, seed uint64, manifestBits float64, w *scratch) *netem {
	n := &w.net
	n.Reset()
	n.Video, n.Clock, n.Link, n.Fault, n.Seed, n.ManifestBits = m, clk, link, fault, seed, manifestBits
	return &netem{VirtualNet: n, w: w}
}

// hit records one origin request at the current virtual second.
func (s *netem) hit() {
	sec := int(s.Clock.NowSec())
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
			if !s.fleet.down(o, s.Clock.NowSec()) {
				shard = o
				break
			}
		}
		s.fleet.reqs[shard]++
	}
	s.hit()
	return s.VirtualNet.Manifest(ctx)
}

// Tile implements client.Transport: the VirtualNet's request, or in
// fleet mode the object's walk through the fleet's ladder (fleetTile).
func (s *netem) Tile(ctx context.Context, k, ti int, l codec.Level) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if s.fleet != nil {
		return s.fleetTile(ctx, k, ti, l, s.Video.Chunks[k].Tiles[ti].Bits[l])
	}
	s.hit()
	return s.VirtualNet.Tile(ctx, k, ti, l)
}

// fleetTile walks the object's fleet.Ladder — the policy fleet.Fetch
// runs — in virtual time. The ladder picks the shards, admits the
// requests and decides the hedges; this side sends them through the
// VirtualNet's pricers (send) and races them (race). The tile's planned
// request rides its shard's turn in the first round; later rounds and
// hedges are fresh requests.
func (s *netem) fleetTile(ctx context.Context, k, ti int, l codec.Level, bits float64) (float64, error) {
	fs := s.fleet
	inTurn := s.Claim(k, ti, l)
	fs.walks++
	var lad fleet.Ladder
	fs.pol.Start(&lad, fs.place.tileOrder(k, ti, l), s.Seed^client.TileKey(k, ti, l)^fs.walks*0x9e3779b97f4a7c15)
	defer lad.End()
	for {
		now := s.Clock.Now()
		switch lad.Next(now) {
		case fleet.Backoff:
			if err := s.Advance(ctx, lad.Backoff()); err != nil {
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
// under the object's fault plan, and a hedge as a clean request.
func (s *netem) send(o int, t float64, hedge, inTurn bool, k, ti int, l codec.Level, bits float64) (time.Duration, error) {
	s.fleet.reqs[o]++
	s.hit()
	switch {
	case s.fleet.down(o, t):
		if inTurn {
			s.Hangup(o)
		}
		return s.Send(chaos.Outcome{Abort: true}, bits, t)
	case hedge:
		return s.Send(chaos.Outcome{}, bits, t)
	case inTurn:
		return s.Answer(o, s.Draw(k, ti, l), bits)
	}
	return s.Send(s.Draw(k, ti, l), bits, t)
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
	t := s.Clock.NowSec()
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
			s.Hangup(f.o) // its answer is abandoned mid-stream
		}
	}
	s.Clock.AdvanceTo(last)
	if !answered && fl[n-1].to > left {
		return false, context.DeadlineExceeded
	}
	return answered, nil
}
