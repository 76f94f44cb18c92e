package swarm

import (
	"strconv"
	"time"

	"pano/internal/chaos"
	"pano/internal/codec"
	"pano/internal/fleet"
	"pano/internal/server"
)

// FleetConfig turns the swarm's single logical origin into a sharded
// fleet: objects place onto Origins virtual shards via the same
// consistent-hash ring the edge uses (internal/fleet), per-shard
// chaos.Down schedules take shards out in virtual time, and every
// session runs its own per-shard circuit breakers, ring failover, and
// token-bucket retry budget — the client-side view of the fault-tolerant
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
type placement struct {
	n        int
	manifest []int
	objects  *objectIndex
	tiles    [][]int // objects.at(k, ti, l) -> ring order
}

func newPlacement(objects *objectIndex, fc *FleetConfig) *placement {
	names := make([]string, fc.Origins)
	for i := range names {
		names[i] = shardName(i)
	}
	ring := fleet.NewRing(names, 0) // the fleet's default vnode count
	p := &placement{n: fc.Origins, objects: objects}
	p.manifest = ring.Order(ring.Key("/manifest.json"))
	p.tiles = make([][]int, objects.len())
	for k := range objects.firstTile[1:] { // every chunk
		for ti := 0; ti < objects.tilesIn(k); ti++ {
			for l := 0; l < codec.NumLevels; l++ {
				key := ring.Key(server.TilePath(k, ti, codec.Level(l)))
				p.tiles[objects.at(k, ti, codec.Level(l))] = ring.Order(key)
			}
		}
	}
	return p
}

func shardName(i int) string { return "shard-" + strconv.Itoa(i) }

func (p *placement) tileOrder(k, ti int, l codec.Level) []int {
	return p.tiles[p.objects.at(k, ti, l)]
}

// fleetSim is one session's client-side fleet state: breakers, budget,
// and the counters that fold into the Summary. All of it is
// per-session, so sessions stay causally independent and the swarm's
// worker-count determinism holds.
type fleetSim struct {
	cfg    *FleetConfig
	place  *placement
	brks   []*fleet.Breaker
	budget *fleet.Budget

	reqs         []int64 // per-shard requests issued
	failovers    int64   // objects answered by a shard beyond the first attempt
	hedges       int64   // hedged backup transfers modelled
	hedgeWins    int64   // hedges that beat the primary
	budgetDenied int64   // ladder steps suppressed by a dry budget
}

func newFleetSim(fc *FleetConfig, place *placement, seed uint64, ratio, burst float64) *fleetSim {
	fs := &fleetSim{
		cfg:    fc,
		place:  place,
		budget: fleet.NewBudget(ratio, burst),
		reqs:   make([]int64, fc.Origins),
		brks:   make([]*fleet.Breaker, fc.Origins),
	}
	for i := range fs.brks {
		fs.brks[i] = fleet.NewBreaker(fc.Breaker, seed^0xf1ee7^uint64(i)*0x9e3779b97f4a7c15)
	}
	return fs
}

// down reports whether shard o is inside its outage window at virtual
// time t (seconds since the swarm epoch).
func (fs *fleetSim) down(o int, tSec float64) bool {
	if o >= len(fs.cfg.Outages) {
		return false
	}
	return fs.cfg.Outages[o].At(time.Duration(tSec * float64(time.Second)))
}
