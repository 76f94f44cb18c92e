package edge

import (
	"context"
	"sync"
	"time"

	"pano/internal/codec"
	"pano/internal/geom"
	"pano/internal/manifest"
	"pano/internal/obs"
	"pano/internal/player"
	"pano/internal/server"
	"pano/internal/trace"
	"pano/internal/viewport"
)

// prefetchVisibility is the minimum predicted-viewport coverage a tile
// needs before it is worth a prefetch token (player.Visibility units:
// fraction of the tile inside the padded viewport footprint).
const prefetchVisibility = 0.2

// prefetcher warms likely next-chunk tiles. When a demand request for a
// tile of chunk k arrives, it predicts which tiles of chunk k+1 the
// session population will want:
//
//   - with peer traces, the cross-user consensus viewpoint (spherical
//     centroid of the peers at the next chunk's media time — the
//     CLS/CUB360-style prior of internal/viewport) selects the tiles
//     under the predicted viewport;
//   - without peers, the edge mirrors its own observed cross-user
//     demand: a tile watched now maps to the tile covering the same
//     panorama position one chunk later (Pano's variable tiling means
//     indices do not line up across chunks, positions do).
//
// Warming is bounded by a token bucket: each prefetched tile costs one
// token and each demand request refills one, so prefetch throughput can
// never exceed demand throughput and the origin never sees a prefetch
// stampede.
type prefetcher struct {
	e     *Edge
	peers []*viewport.Trace

	mu      sync.Mutex
	tokens  float64
	budget  float64
	demand  map[int]*chunkDemand // per-chunk observed demand
	planned map[int]map[int]bool // next-chunk tiles already enqueued
	closed  bool

	jobs     chan prefetchJob
	jobWG    sync.WaitGroup // outstanding jobs, for drain
	planWG   sync.WaitGroup // in-flight consensus planning goroutines
	workerWG sync.WaitGroup
}

type chunkDemand struct {
	levels    [codec.NumLevels]int
	consensus bool // consensus prefetch for k+1 already planned
}

type prefetchJob struct {
	k, ti int
	l     codec.Level
}

func newPrefetcher(e *Edge, cfg Config) *prefetcher {
	p := &prefetcher{
		e:       e,
		peers:   cfg.Peers,
		tokens:  float64(cfg.PrefetchBudget),
		budget:  float64(cfg.PrefetchBudget),
		demand:  make(map[int]*chunkDemand),
		planned: make(map[int]map[int]bool),
		jobs:    make(chan prefetchJob, 4*cfg.PrefetchBudget),
	}
	const workers = 2 // bounds concurrent prefetch fills
	for i := 0; i < workers; i++ {
		p.workerWG.Add(1)
		go p.worker()
	}
	return p
}

func (p *prefetcher) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.jobs)
	p.mu.Unlock()
	p.planWG.Wait()
	p.workerWG.Wait()
}

func (p *prefetcher) drain() {
	p.planWG.Wait()
	p.jobWG.Wait()
}

// observe is called for every demand tile request the edge serves.
func (p *prefetcher) observe(path string) {
	k, ti, l, err := server.ParseTilePath(path)
	if err != nil {
		return
	}
	m := p.e.man.Load()
	if m == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	// Demand refills the bucket: prefetch rate is capped by demand rate.
	if p.tokens < p.budget {
		p.tokens++
	}
	d := p.demand[k]
	if d == nil {
		d = &chunkDemand{}
		p.demand[k] = d
	}
	if l >= 0 && int(l) < codec.NumLevels {
		d.levels[l]++
	}
	next := k + 1
	if next >= m.NumChunks() {
		// Never warm past the learned manifest's last chunk. For a live
		// manifest that boundary is the moving edge: k+1 is simply not
		// published yet, and prefetching it would 404 at the origin and
		// poison the cache with a negative entry for NegTTL.
		if m.Live {
			p.e.prefetchCount("live_edge")
		}
		return
	}
	if next < m.FirstChunk {
		// Below the availability window: the origin would answer 410.
		return
	}
	lv := d.majorityLevel(l)
	if len(p.peers) > 0 {
		if !d.consensus {
			d.consensus = true
			// The visibility sweep is milliseconds of math; off the lock
			// and off the demand-response path (the lock would convoy
			// every in-flight tile request behind it).
			p.planWG.Add(1)
			go p.planConsensus(m, next, lv)
		}
		return
	}
	// Popularity fallback: warm the tile covering this tile's center one
	// chunk later — position-stable across Pano's per-chunk variable
	// tilings.
	if k < 0 || ti < 0 || ti >= len(m.Chunks[k].Tiles) {
		return
	}
	r := m.Chunks[k].Tiles[ti].Rect
	if nti, ok := m.Chunks[next].TileAt((r.X0+r.X1)/2, (r.Y0+r.Y1)/2); ok {
		p.enqueueLocked(next, nti, lv)
	}
}

// planConsensus computes the cross-user warm set for chunk k and
// enqueues it.
func (p *prefetcher) planConsensus(m *manifest.Video, k int, lv codec.Level) {
	defer p.planWG.Done()
	tiles := PredictTiles(m, p.peers, k)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	for _, ti := range tiles {
		p.enqueueLocked(k, ti, lv)
	}
}

// majorityLevel picks the most-demanded level of the chunk (ties to the
// higher-quality level), defaulting to the current request's level.
func (d *chunkDemand) majorityLevel(fallback codec.Level) codec.Level {
	best, n := fallback, 0
	for l, c := range d.levels {
		if c > n {
			best, n = codec.Level(l), c
		}
	}
	return best
}

// PredictTiles returns the tiles of chunk k under the peers' consensus
// viewpoint at that chunk's media midpoint — the cross-user prediction
// the prefetcher warms. Exported so tests and benchmarks can compute
// the expected warm set independently.
func PredictTiles(m *manifest.Video, peers []*viewport.Trace, k int) []int {
	if len(peers) == 0 || k < 0 || k >= m.NumChunks() {
		return nil
	}
	t := (float64(k) + 0.5) * m.ChunkSec
	pts := make([]geom.Angle, len(peers))
	for i, tr := range peers {
		pts[i] = tr.At(t)
	}
	center := geom.Centroid(pts)
	var out []int
	for ti := range m.Chunks[k].Tiles {
		if player.Visibility(m, &m.Chunks[k].Tiles[ti], center, 15, 0) >= prefetchVisibility {
			out = append(out, ti)
		}
	}
	return out
}

// enqueueLocked spends a token to schedule one warm fill (p.mu held).
func (p *prefetcher) enqueueLocked(k, ti int, l codec.Level) {
	set := p.planned[k]
	if set == nil {
		set = make(map[int]bool)
		p.planned[k] = set
	}
	if set[ti] {
		return
	}
	if p.tokens < 1 {
		p.e.prefetchCount("throttled")
		return
	}
	// Count the job before a worker can see it: a worker that finishes
	// first would otherwise drive jobWG negative.
	p.jobWG.Add(1)
	select {
	case p.jobs <- prefetchJob{k: k, ti: ti, l: l}:
		p.tokens--
		set[ti] = true
	default:
		p.jobWG.Done()
		p.e.prefetchCount("queue_full")
	}
}

func (p *prefetcher) worker() {
	defer p.workerWG.Done()
	for job := range p.jobs {
		p.run(job)
		p.jobWG.Done()
	}
}

// run executes one warm fill through the same cache + singleflight path
// demand fetches use, so a concurrent demand miss coalesces with it.
func (p *prefetcher) run(job prefetchJob) {
	e := p.e
	path := server.TilePath(job.k, job.ti, job.l)
	ctx, sp := e.tracer.Start(context.Background(), "edge.prefetch",
		trace.A("component", "edge"), trace.A("path", path),
		trace.A("chunk", job.k), trace.A("tile", job.ti))
	defer sp.End()
	now := time.Now()
	ent, state := e.cache.Get(path, now)
	if state == Fresh {
		sp.Annotate(trace.A("outcome", "already_cached"))
		e.prefetchCount("dup")
		return
	}
	fr, _ := e.fill(ctx, path, &e.prefetchEP, ent, state)
	switch {
	case fr.err != nil:
		sp.SetError("origin")
		e.prefetchCount("error")
	default:
		sp.Annotate(trace.A("outcome", "warmed"), trace.A("bytes", len(fr.entry.Body)))
		e.prefetchCount("warmed")
		e.log.Logger().Debug("edge_prefetch",
			"chunk", job.k, "tile", job.ti, "level", int(job.l), "bytes", len(fr.entry.Body))
	}
}

func (e *Edge) prefetchCount(result string) {
	e.reg.Counter("pano_edge_prefetch_total",
		"prediction-driven prefetch outcomes (warmed, dup, throttled, queue_full, error)",
		obs.L("result", result)).Inc()
}
