package player

import (
	"math"
	"runtime"
	"sync"
	"weak"

	"pano/internal/abr"
	"pano/internal/codec"
	"pano/internal/manifest"
)

// A chunk's plan reads two kinds of fact. The view's — the action ratio
// of every tile, and the costs built from it — change from session to
// session and chunk to chunk. The manifest's do not: the chunk-level
// controller's menu of the chunk (horizonRow), and what abr.Starved reads
// of the chunk's bits (abr.Floor) and of its tied tiles' rows (flatLevel).
// Those are computed once per manifest, chunk by chunk as sessions first
// reach it, into a table every session and swarm worker shares; so is
// whether the manifest validates (Validate).
//
// The table is keyed by the *manifest.Video and its chunk count, so a
// manifest grown in place (a live manifest held by the publisher, or a
// test's) gets a new table, and a live refresh, which is a new Video,
// gets its own. It is held weakly: interleaved manifests (the
// experiments plan each system on its own) keep their tables side by
// side, and a manifest's table goes when the manifest does. The table
// must not live on a planner: one planner per session (vod_session's)
// would rebuild it every session.
//
// So no manifest may change in place once a session has read it, other
// than by growing: no path in the repo does. The provider builds a
// Video before it returns it, the live publisher appends chunks to its
// own Video and hands sessions decoded copies, and the experiments that
// round a manifest's fields round a fresh copy before any session reads
// it. The swarm's placement relies on the same. A manifest must also
// live on the heap (weak.Make refuses a package-level Video): every
// manifest in the repo is allocated by its decoder or its builder.

// videoTable is one manifest's table, sized for its first n chunks;
// chunk k's entry is filled by the first call that needs it (once[k]),
// and the manifest's Validate verdict by the first Validate.
type videoTable struct {
	n         int
	once      []sync.Once
	horizon   []abr.ChunkPlan
	chunks    []chunkFacts
	validOnce sync.Once
	valid     error
}

// chunkFacts is what Plan's low end reads of one chunk: the floor of its
// rows' bits and, per tile, flatLevel's answer.
type chunkFacts struct {
	floor abr.Floor
	flat  []int8
}

// tables maps weak.Pointer[manifest.Video] to its *videoTable.
var tables sync.Map

// tableOf returns m's table, made on first use.
func tableOf(m *manifest.Video) *videoTable {
	key, n := weak.Make(m), m.NumChunks()
	if v, ok := tables.Load(key); ok {
		if t := v.(*videoTable); t.n == n {
			return t
		}
	}
	t := &videoTable{n: n, once: make([]sync.Once, n), horizon: make([]abr.ChunkPlan, n), chunks: make([]chunkFacts, n)}
	if _, loaded := tables.Swap(key, t); !loaded {
		runtime.AddCleanup(m, func(key weak.Pointer[manifest.Video]) { tables.Delete(key) }, key)
	}
	return t
}

// Validate is m.Validate(), run once per manifest: the verdict is kept in
// m's table, so the sessions that share a manifest pay for one check, and
// a manifest that fails it fails every call.
func Validate(m *manifest.Video) error {
	t := tableOf(m)
	t.validOnce.Do(func() { t.valid = m.Validate() })
	return t.valid
}

// chunk returns chunk k's facts, filling its entry on first use.
func (t *videoTable) chunk(m *manifest.Video, k int) *chunkFacts {
	t.once[k].Do(func() { t.fill(m, k) })
	return &t.chunks[k]
}

func (t *videoTable) fill(m *manifest.Video, k int) {
	tiles := m.Chunks[k].Tiles
	rows := make([]abr.TileChoice, len(tiles))
	for i := range tiles {
		rows[i].Bits = tiles[i].Bits
	}
	c := &t.chunks[k]
	c.floor = abr.NewFloor(rows)
	c.flat = make([]int8, len(tiles))
	for i := range tiles {
		c.flat[i] = -1
		if c.floor.Tied[i] {
			c.flat[i] = flatLevel(&tiles[i], c.floor.Small[i])
		}
	}
	t.horizon[k] = horizonRow(m, k)
}

// flatLevel is, for a tile whose level s shares its bits with other
// levels, the level abr.TieRow picks among them under any action ratio
// that is not NaN, or -1 where the costs must decide. Where every such
// level has s's RefPSPNR and LUT (compared by ==, so a NaN is never the
// same) and RefPSPNR·ACoeff is positive and finite, their cost rows are
// one finite value under such a ratio — the estimate is a finite
// non-negative PSPNR — and TieRow takes the one of the lowest index.
func flatLevel(t *manifest.Tile, s codec.Level) int8 {
	top := s
	for l := s - 1; l >= 0; l-- {
		if t.Bits[l] != t.Bits[s] {
			continue
		}
		if t.RefPSPNR[l] != t.RefPSPNR[s] || t.LUT[l] != t.LUT[s] {
			return -1
		}
		top = l
	}
	if p := t.RefPSPNR[s] * t.LUT[s].ACoeff; !(p > 0 && p <= math.MaxFloat64) {
		return -1
	}
	return int8(top)
}

// Horizon returns the chunk-level controller's rows of chunks [lo, hi)
// of m (horizonRow) from m's table. They are shared by every session of
// m: read-only.
func Horizon(m *manifest.Video, lo, hi int) []abr.ChunkPlan {
	t := tableOf(m)
	for j := lo; j < hi; j++ {
		t.chunk(m, j)
	}
	return t.horizon[lo:hi:hi]
}

// horizonRow is chunk j's menu for the chunk-level controller: its size
// at each uniform level and that level's quality, the area-weighted
// reference PSPNR in dB/10 — MOS-like units, so the rebuffer and buffer
// penalties bind (a level step is worth ~1-2 units, far less than a
// second of stall).
func horizonRow(m *manifest.Video, j int) abr.ChunkPlan {
	var p abr.ChunkPlan
	for l := 0; l < codec.NumLevels; l++ {
		p.Bits[l] = m.ChunkBits(j, codec.Level(l))
		p.Quality[l] = MeanRefPSPNR(m, j, codec.Level(l)) / 10
	}
	return p
}
