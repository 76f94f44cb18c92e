package live

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pano/internal/codec"
	"pano/internal/manifest"
	"pano/internal/server"
	"pano/internal/store"
	"pano/internal/trace"
)

// publisher owns the feed's published state: the growing manifest, the
// catalog's tile map, and the per-chunk blob lists needed to retire a
// chunk. All mutation happens on the pipeline's single publish
// goroutine; the mutex only guards the read-side accessors.
type publisher struct {
	p *Pipeline

	mu      sync.Mutex
	man     manifest.Video
	manWire []byte
	rep     Report
	latSum  time.Duration

	manDigest string
	tiles     map[string]store.TileRef
	// chunkBlobs holds, per retired-able chunk index, the (path, digest)
	// pairs to drop when the availability window slides past it.
	chunkBlobs map[int][]blobRef
}

type blobRef struct {
	path   string
	digest string
}

func (pb *publisher) init(p *Pipeline, chunkSec float64) {
	pb.p = p
	v := p.cfg.Video
	pb.man = manifest.Video{
		Name:         v.Name,
		Genre:        v.Genre.String(),
		W:            v.W,
		H:            v.H,
		FPS:          v.FPS,
		ChunkSec:     chunkSec,
		Live:         true,
		WindowChunks: p.cfg.WindowChunks,
	}
	pb.tiles = make(map[string]store.TileRef)
	pb.chunkBlobs = make(map[int][]blobRef)
}

func (pb *publisher) edge() int {
	pb.mu.Lock()
	defer pb.mu.Unlock()
	return pb.man.NumChunks()
}

func (pb *publisher) seqNum() int64 {
	pb.mu.Lock()
	defer pb.mu.Unlock()
	return pb.man.Seq
}

func (pb *publisher) manifestWire() []byte {
	pb.mu.Lock()
	defer pb.mu.Unlock()
	return pb.manWire
}

func (pb *publisher) report() *Report {
	pb.mu.Lock()
	defer pb.mu.Unlock()
	r := pb.rep
	if r.Chunks > 0 {
		r.MeanPublishLatency = pb.latSum / time.Duration(r.Chunks)
	}
	return &r
}

// publishHead publishes the initial empty live manifest (Seq 1) so
// origins have a head to serve and clients a poll target before chunk 0
// lands.
func (pb *publisher) publishHead() error {
	pb.mu.Lock()
	pb.man.Seq++
	pb.mu.Unlock()
	return pb.writeHead()
}

// publish lands one encoded chunk: tile blobs, then the refreshed
// manifest blob, then the catalog head — strictly in that order, so a
// reader holding any catalog version only ever resolves named blobs.
func (pb *publisher) publish(ctx context.Context, ec encodedChunk, last bool) error {
	cfg := pb.p.cfg
	_, sp := cfg.Tracer.Start(ctx, "live.publish",
		trace.A("component", "live"), trace.A("chunk", ec.k))
	defer sp.End()

	var blobs []blobRef
	for ti := range ec.chunk.Tiles {
		t := &ec.chunk.Tiles[ti]
		for l := 0; l < codec.NumLevels; l++ {
			lv := codec.Level(l)
			size := server.TileSizeBytes(t, lv)
			digest, err := cfg.Store.Put(server.TilePayload(ec.k, ti, lv, size))
			if err != nil {
				sp.SetError("store")
				return fmt.Errorf("live: publish chunk %d: %w", ec.k, err)
			}
			cfg.Store.AddRef(digest)
			path := server.TilePath(ec.k, ti, lv)
			pb.tiles[path] = store.TileRef{Digest: digest, Size: size}
			blobs = append(blobs, blobRef{path: path, digest: digest})
		}
	}
	pb.chunkBlobs[ec.k] = blobs

	pb.mu.Lock()
	pb.man.Chunks = append(pb.man.Chunks, ec.chunk)
	pb.man.Seq++
	if last {
		// End of stream: the final manifest is a plain VOD manifest with
		// an availability window.
		pb.man.Live = false
	}
	expired := 0
	if cfg.WindowChunks > 0 {
		for pb.man.NumChunks()-pb.man.FirstChunk > cfg.WindowChunks {
			pb.retireLocked(pb.man.FirstChunk)
			pb.man.FirstChunk++
			expired++
		}
	}
	pb.mu.Unlock()
	if err := pb.writeHead(); err != nil {
		sp.SetError("store")
		return err
	}
	if expired > 0 {
		cfg.Store.GC(cfg.Retention)
	}

	lat := pb.p.clk.Since(ec.capturedAt)
	late := cfg.Deadline > 0 && lat > cfg.Deadline
	pb.mu.Lock()
	pb.rep.Chunks++
	pb.latSum += lat
	if lat > pb.rep.MaxPublishLatency {
		pb.rep.MaxPublishLatency = lat
	}
	if late {
		pb.rep.DeadlineMisses++
	}
	if ec.degraded {
		pb.rep.Degraded++
	}
	pb.rep.Expired += expired
	edge, seq := pb.man.NumChunks(), pb.man.Seq
	pb.mu.Unlock()

	cfg.Obs.Counter("pano_live_published_chunks_total", "chunks published to the store").Inc()
	if late {
		cfg.Obs.Counter("pano_live_deadline_misses_total",
			"chunks published after their deadline").Inc()
	}
	if ec.degraded {
		cfg.Obs.Counter("pano_live_degraded_publishes_total",
			"chunks encoded at the degraded ladder rung to protect the deadline").Inc()
	}
	if expired > 0 {
		cfg.Obs.Counter("pano_live_expired_chunks_total",
			"chunks retired from the availability window").Add(float64(expired))
	}
	cfg.Obs.Gauge("pano_live_edge_chunk", "published live edge (chunk count)").Set(float64(edge))
	cfg.Obs.Gauge("pano_live_seq", "manifest publish sequence number").Set(float64(seq))
	cfg.Obs.Histogram("pano_live_publish_latency_seconds",
		"capture-to-publish latency per chunk", nil).Observe(lat.Seconds())
	cfg.Obs.Histogram("pano_live_encode_seconds",
		"per-chunk encode time", nil).Observe(ec.encodeTime.Seconds())
	sp.Annotate("latency_sec", lat.Seconds())
	sp.Annotate("late", late)
	cfg.Log.Logger().Info("live_publish",
		"chunk", ec.k, "tiles", len(ec.chunk.Tiles), "edge", edge, "seq", seq,
		"latency_sec", lat.Seconds(), "late", late, "degraded", ec.degraded,
		"expired", expired)
	return nil
}

// retireLocked drops chunk k's blobs from the catalog map and releases
// their refs (pb.mu held; the refs start their GC retention clock).
func (pb *publisher) retireLocked(k int) {
	for _, b := range pb.chunkBlobs[k] {
		delete(pb.tiles, b.path)
		pb.p.cfg.Store.Release(b.digest)
	}
	delete(pb.chunkBlobs, k)
}

// writeHead encodes the manifest, stores it, and replaces the catalog.
func (pb *publisher) writeHead() error {
	cfg := pb.p.cfg
	pb.mu.Lock()
	body := pb.man.Marshal()
	seq := pb.man.Seq
	first := pb.man.FirstChunk
	prevDigest := pb.manDigest
	pb.mu.Unlock()

	digest, err := cfg.Store.Put(body)
	if err != nil {
		return fmt.Errorf("live: store manifest: %w", err)
	}
	cfg.Store.AddRef(digest)
	if prevDigest != "" && prevDigest != digest {
		cfg.Store.Release(prevDigest)
	}
	if err := cfg.Store.WriteCatalog(&store.Catalog{
		Seq: seq, Manifest: digest, FirstChunk: first, Tiles: pb.tiles,
	}); err != nil {
		return err
	}
	pb.mu.Lock()
	pb.manWire = body
	pb.manDigest = digest
	pb.mu.Unlock()
	return nil
}
