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

// FleetConfig turns the swarm's single logical origin into a sharded
// fleet: objects place onto Origins virtual shards via the same
// consistent-hash ring the edge uses (internal/fleet), per-shard
// chaos.Down schedules take shards out in virtual time, and every
// session walks each tile through fleet.Ladder — the failover policy
// fleet.Fetch runs — over its own per-shard circuit breakers and
// token-bucket retry budget: the client-side view of the fault-tolerant
// delivery layer, replayed deterministically at population scale.
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
// the table is per chunk.
type placement struct {
	manifest []int
	tiles    [][][codec.NumLevels][]int // [k][ti][l] -> ring order
}

func newPlacement(m *manifest.Video, fc *FleetConfig) *placement {
	names := make([]string, fc.Origins)
	for i := range names {
		names[i] = shardName(i)
	}
	ring := fleet.NewRing(names, 0) // the fleet's default vnode count
	p := &placement{tiles: make([][][codec.NumLevels][]int, m.NumChunks())}
	p.manifest = ring.Order(ring.Key("/manifest.json"))
	for k := range p.tiles {
		p.tiles[k] = make([][codec.NumLevels][]int, len(m.Chunks[k].Tiles))
		for ti := range p.tiles[k] {
			for l := range codec.NumLevels {
				p.tiles[k][ti][l] = ring.Order(ring.Key(server.TilePath(k, ti, codec.Level(l))))
			}
		}
	}
	return p
}

func shardName(i int) string { return "shard-" + strconv.Itoa(i) }

func (p *placement) tileOrder(k, ti int, l codec.Level) []int { return p.tiles[k][ti][l] }

// fleetSim is one session's client-side fleet: the ladder's breakers and
// budget, and the counters that fold into the Summary. All of it is
// per-session, so sessions stay causally independent and the swarm's
// worker-count determinism holds.
type fleetSim struct {
	cfg   *FleetConfig
	place *placement
	pol   *fleet.Policy
	walks uint64  // ladder walks so far, a backoff seed's sequence number
	reqs  []int64 // per-shard requests issued
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
// time t (seconds since the swarm epoch).
func (fs *fleetSim) down(o int, tSec float64) bool {
	if o >= len(fs.cfg.Outages) {
		return false
	}
	return fs.cfg.Outages[o].At(time.Duration(tSec * float64(time.Second)))
}
