// Package live implements the just-in-time publishing pipeline for live
// 360° streaming: chunks are captured from an internal/scene feed,
// JND-tiled and encoded per chunk (provider.ChunkAt — the same kernels
// as VOD preprocessing, running on internal/parallel's bounded worker
// pool), and published to an internal/store directory under a per-chunk
// deadline. The paper's quality-perception model (PAPER.md §5–§7) is
// unchanged; what live adds is the regime where the manifest has a
// moving edge and the encoder cannot be late.
//
// The pipeline is three bounded stages connected by channels:
//
//	capture  — paces chunk arrival (CaptureInterval per chunk; the
//	           chunk's publish deadline starts here)
//	encode   — encodeWorkers concurrent provider.ChunkAt calls; when
//	           the EWMA encode-time forecast says the standard config
//	           would miss the deadline, the chunk drops to the degraded
//	           rung (uniform grid, single sampled frame) instead of
//	           stalling the feed
//	publish  — single goroutine, strictly in chunk order: tile blobs
//	           first, then the manifest blob, then the catalog head, so
//	           no reader can ever observe a manifest naming unwritten
//	           bytes. Late chunks still publish (degraded or not) and
//	           count in pano_live_deadline_misses_total.
//
// Each publish appends a chunk to the manifest, bumps its Seq (rotating
// the manifest ETag, which is a content hash), and — when WindowChunks
// is set — retires the oldest chunk: FirstChunk advances, the retired
// tiles' refs drop, and store GC reclaims them past the retention
// horizon.
package live

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pano/internal/client"
	"pano/internal/manifest"
	"pano/internal/obs"
	"pano/internal/provider"
	"pano/internal/scene"
	"pano/internal/store"
	"pano/internal/trace"
	"pano/internal/viewport"
)

// Config tunes a Pipeline.
type Config struct {
	// Video is the scene feed chunks are captured from.
	Video *scene.Video
	// History supplies viewpoint traces for JND tiling (may be empty).
	History []*viewport.Trace
	// Deadline is the per-chunk publish budget measured from capture;
	// 0 disables deadline tracking (nothing ever counts as late). A
	// chunk the encode-time forecast says would miss it is encoded with
	// DegradedConfig of the provider defaults every other chunk uses.
	Deadline time.Duration
	// CaptureInterval paces chunk capture. 0 means real time: one chunk
	// duration of wall clock per chunk. Benches compress it.
	CaptureInterval time.Duration
	// WindowChunks bounds the availability window (0 = unbounded: no
	// chunk is ever retired).
	WindowChunks int
	// Store receives published blobs and the catalog head. Required.
	Store *store.Store
	// Obs, Log, and Tracer attach metrics, structured events, and
	// spans; nil disables each at zero cost.
	Obs    *obs.Registry
	Log    *obs.EventLog
	Tracer *trace.Tracer
}

// wall paces capture and measures deadlines.
var wall client.RealClock

const (
	// encodeWorkers bounds concurrent chunk encodes; the publish stage
	// reorders, so more than one never reorders the feed.
	encodeWorkers = 2
	// retention is the GC horizon for retired blobs; it must exceed the
	// reading origins' catalog refresh lag.
	retention = 30 * time.Second
)

// DegradedConfig derives the cheap ladder rung from a standard encode
// config: a uniform grid (no per-chunk efficiency clustering) and a
// single sampled frame per chunk — the minimum work that still yields a
// valid, servable chunk.
func DegradedConfig(base provider.Config) provider.Config {
	d := base
	d.Mode = provider.ModeUniform
	d.FrameStride = 1 << 20 // one sample per chunk
	return d
}

// Report summarizes a finished feed.
type Report struct {
	// Chunks published (always equals the feed length on success: late
	// chunks publish too, they just count as misses).
	Chunks int
	// DeadlineMisses counts chunks published after their deadline.
	DeadlineMisses int
	// Degraded counts chunks encoded at the degraded rung.
	Degraded int
	// Expired counts chunks retired from the availability window.
	Expired int
	// MeanPublishLatency and MaxPublishLatency measure capture→publish.
	MeanPublishLatency time.Duration
	MaxPublishLatency  time.Duration
}

// OnTimeFrac returns the fraction of chunks published within deadline.
func (r *Report) OnTimeFrac() float64 {
	if r.Chunks == 0 {
		return 0
	}
	return float64(r.Chunks-r.DeadlineMisses) / float64(r.Chunks)
}

// Pipeline is one live feed. Create with New, drive with Run.
type Pipeline struct {
	cfg       Config
	numChunks int

	pub publisher
}

// New validates cfg and prepares a pipeline. The initial (empty, live)
// manifest is not published until Run starts.
func New(cfg Config) (*Pipeline, error) {
	if cfg.Video == nil {
		return nil, fmt.Errorf("live: Video is required")
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("live: Store is required")
	}
	if err := cfg.Video.Validate(); err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	if cfg.CaptureInterval <= 0 {
		cfg.CaptureInterval = time.Duration(provider.ChunkSec * float64(time.Second))
	}
	n := int(float64(cfg.Video.DurationSec) / provider.ChunkSec)
	p := &Pipeline{cfg: cfg, numChunks: n}
	p.pub.init(p, provider.ChunkSec)
	return p, nil
}

// Edge returns the published live edge (chunks visible to clients).
func (p *Pipeline) Edge() int { return p.pub.edge() }

// Manifest returns a snapshot of the currently published manifest
// (decoded fresh from the published bytes; callers own the copy). nil
// before the first publish.
func (p *Pipeline) Manifest() *manifest.Video {
	body := p.pub.manifestWire()
	if body == nil {
		return nil
	}
	m, err := manifest.Unmarshal(body)
	if err != nil {
		return nil
	}
	return m
}

// capturedChunk is one unit of work flowing capture → encode.
type capturedChunk struct {
	k          int
	capturedAt time.Time
}

// encodedChunk flows encode → publish.
type encodedChunk struct {
	k          int
	chunk      manifest.Chunk
	degraded   bool
	capturedAt time.Time
	encodeTime time.Duration
	err        error
}

// Run drives the feed to completion (or ctx cancellation): an initial
// empty live manifest is published immediately so origins and clients
// have a head to poll, then every chunk flows capture → encode →
// publish. The final chunk's publish clears manifest.Live — the
// end-of-stream signal.
func (p *Pipeline) Run(ctx context.Context) (*Report, error) {
	ctx, span := p.cfg.Tracer.Start(ctx, "live.feed",
		trace.A("component", "live"), trace.A("chunks", p.numChunks))
	defer span.End()
	if err := p.pub.publishHead(); err != nil {
		span.SetError("publish")
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	jobs := make(chan capturedChunk, encodeWorkers)
	encoded := make(chan encodedChunk, encodeWorkers)

	// Capture stage: the feed's metronome.
	go func() {
		defer close(jobs)
		start := wall.Now()
		for k := 0; k < p.numChunks; k++ {
			target := start.Add(time.Duration(k) * p.cfg.CaptureInterval)
			if d := target.Sub(wall.Now()); d > 0 {
				if wall.Sleep(ctx, d) != nil {
					return
				}
			}
			select {
			case jobs <- capturedChunk{k: k, capturedAt: wall.Now()}:
			case <-ctx.Done():
				return
			}
		}
	}()

	// Encode stage.
	var ewma encodeEWMA
	done := make(chan struct{})
	for w := 0; w < encodeWorkers; w++ {
		go func() {
			for job := range jobs {
				select {
				case encoded <- p.encode(ctx, job, &ewma):
				case <-ctx.Done():
				}
			}
			done <- struct{}{}
		}()
	}
	go func() {
		for w := 0; w < encodeWorkers; w++ {
			<-done
		}
		close(encoded)
	}()

	// Publish stage: single goroutine, strict chunk order via a reorder
	// buffer (worker counts must never reorder the feed).
	pending := make(map[int]encodedChunk)
	next := 0
	for ec := range encoded {
		if ec.err != nil {
			cancel()
			span.SetError("encode")
			return nil, fmt.Errorf("live: chunk %d: %w", ec.k, ec.err)
		}
		pending[ec.k] = ec
		for {
			ready, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			if err := p.pub.publish(ctx, ready, next == p.numChunks-1); err != nil {
				cancel()
				span.SetError("publish")
				return nil, err
			}
			next++
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if next != p.numChunks {
		return nil, fmt.Errorf("live: feed stopped at chunk %d of %d", next, p.numChunks)
	}
	rep := p.pub.report()
	span.Annotate(trace.A("deadline_misses", rep.DeadlineMisses), trace.A("degraded", rep.Degraded))
	return rep, nil
}

// encodeEWMA is a concurrency-safe exponentially weighted moving
// average of full-rung encode times — the forecast behind the degrade
// decision. Degraded encodes don't feed it (they would drag the
// forecast down and flap the rung).
type encodeEWMA struct {
	mu  sync.Mutex
	avg time.Duration
}

func (e *encodeEWMA) observe(d time.Duration) {
	e.mu.Lock()
	if e.avg == 0 {
		e.avg = d
	} else {
		e.avg = (e.avg*7 + d*3) / 10
	}
	e.mu.Unlock()
}

func (e *encodeEWMA) get() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.avg
}

// encode runs one chunk through provider.ChunkAt, dropping to the
// degraded rung when the forecast says the standard config would miss
// the deadline (or the deadline has already passed at dequeue).
func (p *Pipeline) encode(ctx context.Context, job capturedChunk, ewma *encodeEWMA) encodedChunk {
	_, sp := p.cfg.Tracer.Start(ctx, "live.encode",
		trace.A("component", "live"), trace.A("chunk", job.k))
	defer sp.End()
	var cfg provider.Config // the provider defaults
	degraded := false
	if p.cfg.Deadline > 0 {
		deadline := job.capturedAt.Add(p.cfg.Deadline)
		forecast := ewma.get()
		if !wall.Now().Add(forecast).Before(deadline) {
			degraded = true
			cfg = DegradedConfig(cfg)
		}
	}
	t0 := wall.Now()
	ch, err := provider.ChunkAt(p.cfg.Video, p.cfg.History, cfg, job.k)
	dur := wall.Since(t0)
	if err == nil && !degraded {
		ewma.observe(dur)
	}
	sp.Annotate(trace.A("degraded", degraded), trace.A("encode_sec", dur.Seconds()))
	if err != nil {
		sp.SetError("encode")
	}
	return encodedChunk{
		k: job.k, chunk: ch, degraded: degraded,
		capturedAt: job.capturedAt, encodeTime: dur, err: err,
	}
}
