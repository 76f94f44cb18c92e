package swarm

import (
	"context"
	"errors"
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
// twin and the origin-load accounting. In fleet mode the session talks
// to one front, as Client.Stream talks to an edge: a chunk's planned
// requests are one turn to it, and each tile's fleet.Ladder walk runs
// behind it (walk), its duration that tile's server delay on the turn.
// TestTurnsMatchLoopback holds both modes to a loopback wire.
type netem struct {
	*client.VirtualNet
	// fleet, when set, shards objects across virtual origins behind the
	// front and walks each tile through the fleet's ladder (walk).
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

// hit records one origin request at virtual instant at, in the bucket of
// its whole second past the epoch.
func (s *netem) hit(at time.Duration) {
	sec := int(at / time.Second)
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
	now := s.Clock.Offset()
	if s.fleet != nil {
		shard := s.fleet.place.manifest[0]
		for _, o := range s.fleet.place.manifest {
			if !s.fleet.down(o, now) {
				shard = o
				break
			}
		}
		s.fleet.reqs[shard]++
	}
	s.hit(now)
	return s.VirtualNet.Manifest(ctx)
}

// Tile implements client.Transport: the VirtualNet's request, or in
// fleet mode the front's, answered as the object's walk ended.
func (s *netem) Tile(ctx context.Context, k, ti int, l codec.Level) (float64, error) {
	if s.fleet == nil {
		s.hit(s.Clock.Offset())
		return s.VirtualNet.Tile(ctx, k, ti, l)
	}
	took, answered := s.walk(k, ti, l)
	return s.Serve(ctx, k, ti, l, chaos.Outcome{Latency: took, Error500: !answered})
}

// errOrigin is how a back-leg request fails — reset, refused or cut
// short: the ladder only needs to know that it did.
var errOrigin = errors.New("swarm: origin request failed")

// walk runs the object's fleet.Ladder — the policy fleet.Fetch runs
// behind the edge — in virtual time from now, and returns how the front
// answers: after took, the walk's duration, and with the edge's 5xx
// unless answered, when the walk ended Dry or Exhausted. The ladder picks
// the shards, admits the requests and decides the hedges; this side
// prices them (send) and races them (race). The walk keeps its own
// elapsed time: the session clock moves only when the front's answer is
// read.
func (s *netem) walk(k, ti int, l codec.Level) (took time.Duration, answered bool) {
	fs := s.fleet
	fs.walks++
	lad := &fs.lad
	fs.pol.Start(lad, fs.place.tileOrder(k, ti, l), s.Seed^client.TileKey(k, ti, l)^fs.walks*0x9e3779b97f4a7c15)
	defer lad.End()
	start := s.Clock.Offset()
	for {
		at := start + took // the rung's instant
		switch lad.Next(instant(at)) {
		case fleet.Backoff:
			took += lad.Backoff()
			continue
		case fleet.Dry:
			fs.budgetDenied++
			return took, false
		case fleet.Exhausted:
			return took, false
		}
		d, answered := s.race(lad, at, k, ti, l)
		took += d
		if answered {
			if lad.Failover() {
				fs.failovers++
			}
			return took, true
		}
	}
}

// flight is one request of a rung: the shard it goes to, whether it is
// a hedge, when it leaves and when it would complete, both after the
// rung starts, and how it ends.
type flight struct {
	o        int
	hedge    bool
	from, to time.Duration
	err      error
}

// instant is virtual instant at as the ladder's time.Time.
func instant(at time.Duration) time.Time { return time.Unix(0, int64(at)) }

// send prices one back-leg request to shard o leaving at virtual instant
// at: how long the origin takes and how it ends.
// The edge's leg to an origin is loopback, so a request costs only its
// server delay. A shard inside its outage window resets at once; a live
// one serves a primary under the object's fault plan (its latency, plus
// the stall if one is drawn) and a hedge as a clean request.
func (s *netem) send(o int, at time.Duration, hedge bool, k, ti int, l codec.Level) (time.Duration, error) {
	s.fleet.reqs[o]++
	s.hit(at)
	switch {
	case s.fleet.down(o, at):
		return 0, errOrigin
	case hedge:
		return 0, nil
	}
	var out chaos.Outcome
	s.Draw(k, ti, l, &out)
	d := out.Latency
	if out.Stall {
		d += s.Fault.Stall()
	}
	if out.Abort || out.Error500 || out.Truncate {
		return d, errOrigin
	}
	return d, nil
}

// race runs the ladder's current rung, admitted at instant at: the
// primary and, when it is still in flight as the hedge delay expires, the
// admitted backup. Outcomes go to the ladder in completion order; the
// first answer wins and the loser is cancelled. It returns how long after
// at the rung ended — at the answer, or at the last failure — and whether
// it was answered.
func (s *netem) race(lad *fleet.Ladder, at time.Duration, k, ti int, l codec.Level) (time.Duration, bool) {
	fs := s.fleet
	p := flight{o: lad.Origin()}
	var h flight
	p.to, p.err = s.send(p.o, at, false, k, ti, l)
	fl, n := [2]*flight{&p, &h}, 1
	if d, ok := lad.HedgeDelay(); ok && p.to > d {
		switch lad.Hedge(instant(at + d)) {
		case fleet.Admitted:
			fs.hedges++
			h.o, h.hedge, h.from = lad.Backup(), true, d
			h.to, h.err = s.send(h.o, at+d, true, k, ti, l)
			h.to += d
			if n = 2; h.to < p.to {
				fl[0], fl[1] = &h, &p
			}
		case fleet.BudgetDry:
			fs.budgetDenied++
		}
	}
	var end, last time.Duration // when the answer came; when the last request ended
	answered := false
	for _, f := range fl[:n] {
		out, err, to := fleet.Failed, f.err, f.to
		switch {
		case answered:
			out, err, to = fleet.Cancelled, nil, end
		case f.err == nil:
			out, end, answered = fleet.Answered, f.to, true
			if f.hedge {
				fs.hedgeWins++
			}
		}
		last = to
		lad.Resolve(f.hedge, out, err, instant(at+to), to-f.from)
	}
	return last, answered
}
