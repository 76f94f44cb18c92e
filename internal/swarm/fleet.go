package swarm

import (
	"strconv"
	"time"

	"pano/internal/chaos"
	"pano/internal/client"
	"pano/internal/codec"
	"pano/internal/fleet"
	"pano/internal/manifest"
	"pano/internal/server"
)

// FleetConfig puts a sharded fleet behind the swarm's one origin, which
// becomes the front a session talks to, as a client talks to an edge:
// objects place onto Origins virtual shards via the same consistent-hash
// ring the edge uses (internal/fleet), per-shard chaos.Down schedules
// take shards out in virtual time, and each tile the front serves is
// walked through fleet.Ladder — the failover policy fleet.Fetch runs
// behind the edge — over the session's own per-shard circuit breakers
// and token-bucket retry budget. The session still pays one turn per
// chunk; the walk's duration is the tile's server delay on it.
// Config.Fault then applies to the origins, not to the front.
type FleetConfig struct {
	// Origins is the shard count (>= 1; failover needs >= 2).
	Origins int
	// Outages schedules whole-shard outages: Outages[i] is shard i's
	// chaos.Down window, evaluated against the session's virtual clock
	// (virtual t=0 is the swarm epoch, shared by all sessions). Shorter
	// than Origins is fine — missing entries never go down.
	Outages []chaos.Down
	// Breaker tunes the per-session per-shard breakers (zero = fleet
	// defaults).
	Breaker fleet.BreakerConfig
}

// placement is the run-wide, immutable shard map: the ring order of
// every (chunk, tile, level) object and of the manifest, precomputed
// once so the per-request hot path is a slice lookup, not a hash.
// Chunks may differ in tile count (Pano tiles each chunk on its own), so
// an object's index counts the tiles of the chunks before it (first). A
// ring order names every origin once, so the orders are n apart in one
// flat table.
type placement struct {
	manifest []int
	n        int   // origins
	first    []int // first[k]: the tiles in chunks before k
	orders   []int // object (first[k]+ti)·NumLevels+l's order at its index·n
}

func newPlacement(m *manifest.Video, fc *FleetConfig) *placement {
	names := make([]string, fc.Origins)
	for i := range names {
		names[i] = shardName(i)
	}
	ring := fleet.NewRing(names, 0) // the fleet's default vnode count
	p := &placement{n: fc.Origins, first: make([]int, m.NumChunks())}
	p.manifest = ring.Order(ring.Key(server.ManifestPath))
	for k := range p.first {
		if k > 0 {
			p.first[k] = p.first[k-1] + len(m.Chunks[k-1].Tiles)
		}
		for ti := range m.Chunks[k].Tiles {
			for l := range codec.NumLevels {
				p.orders = append(p.orders, ring.Order(ring.Key(server.TilePath(k, ti, codec.Level(l))))...)
			}
		}
	}
	return p
}

func shardName(i int) string { return "shard-" + strconv.Itoa(i) }

func (p *placement) tileOrder(k, ti int, l codec.Level) []int {
	i := ((p.first[k]+ti)*codec.NumLevels + int(l)) * p.n
	return p.orders[i : i+p.n : i+p.n]
}

// fleetSim is one session's client-side fleet: the ladder's breakers and
// budget, and the counters that fold into the Summary. All of it is
// per-session, so sessions stay causally independent and the swarm's
// worker-count determinism holds.
type fleetSim struct {
	cfg   *FleetConfig
	place *placement
	pol   *fleet.Policy
	walks uint64       // ladder walks so far, a backoff seed's sequence number
	reqs  []int64      // per-shard requests issued
	lad   fleet.Ladder // the running walk's, reused walk after walk
	fleetCounts
}

// fleetCounts are a session's fleet counters.
type fleetCounts struct {
	failovers    int64 // objects answered as failovers (fleet.Ladder's policy 5)
	hedges       int64 // hedged backup requests admitted
	hedgeWins    int64 // hedges that answered first
	budgetDenied int64 // rungs and hedges refused by a dry budget
}

func newFleetSim(fc *FleetConfig, place *placement, seed uint64, fetch client.FetchPolicy) *fleetSim {
	return &fleetSim{
		cfg:   fc,
		place: place,
		pol:   fleet.NewPolicy(fetch, fc.Breaker, fc.Origins, seed^0xf1ee7),
		reqs:  make([]int64, fc.Origins),
	}
}

// down reports whether shard o is inside its outage window at virtual
// instant at (past the swarm epoch).
func (fs *fleetSim) down(o int, at time.Duration) bool {
	if o >= len(fs.cfg.Outages) {
		return false
	}
	return fs.cfg.Outages[o].At(at)
}
