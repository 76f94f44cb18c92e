// Package client implements the streaming client of §7. RunSession is
// the adaptation loop — MPC + tile-level allocation, the fetch ladder,
// buffer accounting — over any Transport and Clock; Client is its HTTP
// transport (a chunk's tile GETs sent concurrently as one turn,
// throughput measured from its own downloads), and Stitch assembles
// per-tile buffers into panoramic frames with row-major copies.
package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"pano/internal/abr"
	"pano/internal/codec"
	"pano/internal/frame"
	"pano/internal/jnd"
	"pano/internal/manifest"
	"pano/internal/mathx"
	"pano/internal/nettrace"
	"pano/internal/obs"
	"pano/internal/player"
	"pano/internal/quality"
	"pano/internal/server"
	"pano/internal/trace"
	"pano/internal/viewport"
)

// Client streams one video from a Pano HTTP server.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP is the underlying client; nil shares one made by New.
	HTTP *http.Client
}

// New returns a client for the given base URL with a dedicated HTTP/1.1
// transport (persistent connections, as in §7): it streams from any HTTP
// server. Each of a turn's concurrent GETs takes a connection, and the
// idle pool (80 per host) holds a whole turn's on Pano's tiling or the
// 6×12 grid, so the next turn reuses them instead of dialing.
func New(baseURL string) *Client {
	tr := &http.Transport{MaxIdleConnsPerHost: 80}
	return &Client{BaseURL: baseURL, HTTP: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

// NewH2C is New over an H2C transport: the session rides one
// connection, each turn's GETs concurrent streams on it. Its server must
// speak h2c, as pano-server and pano-edge do.
func NewH2C(baseURL string) *Client {
	return &Client{BaseURL: baseURL, HTTP: &http.Client{Transport: H2C(), Timeout: 30 * time.Second}}
}

// H2C returns a transport that speaks only HTTP/2 without TLS, by prior
// knowledge (h2c): every request to a host is a stream on one
// connection. A server that speaks only HTTP/1.1 fails every request.
func H2C() *http.Transport {
	tr := &http.Transport{Protocols: new(http.Protocols)}
	tr.Protocols.SetUnencryptedHTTP2(true)
	return tr
}

// shared is the http.Client of every Client whose HTTP is nil.
var shared = New("").HTTP

func (c *Client) httpClient() *http.Client {
	if c.HTTP == nil {
		return shared
	}
	return c.HTTP
}

// drainClose consumes what remains of a response body (bounded) before
// closing it, so the persistent transport can reuse the connection even
// on non-200 answers instead of tearing it down.
func drainClose(resp *http.Response) {
	_, _ = io.CopyN(io.Discard, resp.Body, 64<<10)
	resp.Body.Close()
}

// FetchManifest downloads and validates the manifest. It runs under the
// caller's context alone — no attempt deadline — so HTTP.Timeout is
// what bounds it.
func (c *Client) FetchManifest(ctx context.Context) (*manifest.Video, error) {
	resp, err := c.get(ctx, c.BaseURL+server.ManifestPath, "")
	if err != nil {
		return nil, fmt.Errorf("client: manifest: %w", err)
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("client: manifest: %w", &StatusError{Code: resp.StatusCode})
	}
	body, err := readBody(resp)
	if err != nil {
		return nil, fmt.Errorf("client: manifest: %w", err)
	}
	m, err := manifest.Unmarshal(body)
	if err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	return m, nil
}

// FetchTile downloads one tile object and verifies its header.
func (c *Client) FetchTile(ctx context.Context, k, ti int, l codec.Level) ([]byte, error) {
	resp, err := c.get(ctx, c.BaseURL+server.TilePath(k, ti, l), "")
	if err != nil {
		return nil, tileErr(k, ti, l, err)
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, tileErr(k, ti, l, &StatusError{Code: resp.StatusCode})
	}
	data, err := readBody(resp)
	if err != nil && !errors.Is(err, io.ErrUnexpectedEOF) && ctx.Err() == nil {
		// A reset mid-body (an HTTP/2 stream's): the answer came, not its body.
		err = fmt.Errorf("%w: %w", io.ErrUnexpectedEOF, err)
	}
	if err != nil {
		return nil, err
	}
	if err := server.CheckTileHeader(data, k, ti); err != nil {
		return nil, tileErr(k, ti, l, err)
	}
	return data, nil
}

func tileErr(k, ti int, l codec.Level, err error) error {
	return fmt.Errorf("client: tile %d/%d/%d: %w", k, ti, int(l), err)
}

// ChunkResult records one chunk's streaming outcome.
type ChunkResult struct {
	Chunk int
	// Planned is the planner's allocation, before any transport loss,
	// and Guess its view's player.ChunkView.BestGuess: the plan-time
	// facts the PSPNR estimate and a scorer read next to what arrived.
	Planned abr.Allocation
	Guess   player.ChunkView
	// Levels are the delivered per-tile levels: degraded tiles show the
	// level they were actually fetched at, skipped tiles the lowest
	// level (their on-screen content is the previous chunk's, §7).
	Levels abr.Allocation
	Bytes  int
	// Bits is the delivered volume before Bytes' per-tile truncation.
	Bits       float64
	Download   time.Duration
	Throughput float64 // bits/s measured from this chunk's successful attempts
	// Retries counts failed fetch attempts across the chunk's tiles;
	// Degraded and Skipped count tiles that fell down the ladder.
	Retries  int
	Degraded int
	Skipped  int
	// Stale marks tiles that were skipped (their on-screen content is
	// the previous chunk's), indexed like Levels; nil when no tile was
	// skipped. It lets callers re-score the delivered frame — e.g. the
	// swarm engine's ground-truth PSPNR — without re-deriving the
	// ladder outcome.
	Stale []bool
}

// StreamConfig tunes a streaming session.
type StreamConfig struct {
	// BufferTargetSec is the MPC target (default DefaultBufferTargetSec).
	BufferTargetSec float64
	// Planner decides per-tile levels (default Pano's).
	Planner player.Planner
	// MaxChunks limits the session length (0 = whole video).
	MaxChunks int
	// MaxRateBps caps the bandwidth estimate fed to the controller,
	// emulating a shaped link when the real transport (e.g. loopback)
	// is effectively unbounded. 0 = no cap.
	MaxRateBps float64
	// Obs receives per-chunk QoE metrics (estimated PSPNR, rebuffer
	// seconds, bytes) and the decision phases' latency and outcomes; nil
	// disables them at zero cost, and the result is the same either way.
	Obs *obs.Registry
	// Log receives structured per-chunk events and a session_summary
	// event that fires on every exit path, success or failure, with a
	// terminal status: "ok", "tile_degraded", "tile_skipped",
	// "tile_error", "manifest_error" or "canceled"; nil disables it.
	Log *obs.EventLog
	// Fetch tunes the resilient tile pipeline (retries, deadlines, the
	// degradation ladder). The zero value selects DefaultFetchPolicy.
	Fetch FetchPolicy
	// Trace, when set, records the session as a span tree — session →
	// chunk → {estimate, mpc, assign, fetch, and stitch when ScoreChunk
	// scores} — with the
	// client's traceparent header stitching server-side handler spans
	// into the same trace: the manifest GET's under the session span,
	// a chunk's tile GETs under its fetch span. A tile opens spans
	// only when its first attempt fails (fetch → tile_fetch →
	// attempt, one per later try). nil disables tracing at zero cost
	// (no span is ever allocated).
	Trace *trace.Tracer
	// Clock supplies every time observation the loop makes (downloads,
	// backoffs, attempt deadlines, pacing). nil selects RealClock;
	// internal/swarm injects a virtual clock to run sessions in
	// discrete-event time.
	Clock Clock
	// MaxBufferSec caps prefetch: when a chunk lands the buffer over it,
	// the session idles on the Clock while playback drains the buffer
	// down to the cap. 0 disables pacing — the historical HTTP
	// behaviour, where the real link is the pace.
	MaxBufferSec float64
	// Deprecated: every session runs one chunk-level model (see
	// RunSession), so nothing reads SimModel; it is kept only so that
	// existing callers still compile.
	SimModel bool
	// Controller overrides the chunk-level bitrate algorithm (default:
	// the §6.1 MPC at BufferTargetSec; abr.NewBOLA is the alternative).
	Controller abr.Controller
	// BWErrorFrac perturbs the bandwidth prediction the controller sees
	// by ±frac, alternating sign per chunk (§8.3's throughput error).
	BWErrorFrac float64
	// ScoreChunk, when set, is called once per streamed chunk with its
	// final ChunkResult, inside the chunk's "stitch" span (carried by
	// ctx). The pointer is valid for the call only; a copy may be kept,
	// as the slices it holds are the chunk's own and never written
	// again. It is how a caller that knows more than the session does —
	// sim.Run holds the clean viewpoint trace — scores what was
	// delivered.
	ScoreChunk func(ctx context.Context, cr *ChunkResult)
	// Live tunes low-latency behaviour against a live manifest
	// (edge-poll cadence, skip-to-edge policy, dead-feed timeout). It is
	// ignored for VOD manifests; the zero value selects defaults derived
	// from the chunk duration.
	Live LivePolicy
}

// StreamResult summarizes an HTTP streaming session.
type StreamResult struct {
	Manifest *manifest.Video
	Chunks   []ChunkResult
	// StartupDelay is the time from the session's start to the first
	// chunk landing: the manifest fetch, any wait at a live edge and
	// the first chunk's download.
	StartupDelay time.Duration
	TotalBytes   int
	// RebufferSec is the total stall: the time after the first chunk
	// landed that the playout buffer could not cover.
	RebufferSec float64
	// TotalRetries, DegradedTiles, and SkippedTiles aggregate the
	// resilient pipeline's outcomes over the session.
	TotalRetries  int
	DegradedTiles int
	SkippedTiles  int
	// TraceID is the session trace's hex id when StreamConfig.Trace was
	// set and the session was sampled ("" otherwise) — the key for
	// /debug/traces?trace=... and histogram exemplars.
	TraceID string
	// LiveEdgeWaits counts the times the session caught up with the live
	// edge and blocked polling the manifest; LiveEdgeWaitSec is the total
	// time spent blocked there, refreshes included. Zero for VOD sessions.
	LiveEdgeWaits   int
	LiveEdgeWaitSec float64
	// LiveSkippedChunks counts chunks skipped by the live catch-up
	// policy (fell out of the availability window, or further behind the
	// edge than LivePolicy.MaxLatencyChunks).
	LiveSkippedChunks int
	// LiveLatencyMeanSec / LiveLatencyMaxSec report the client's live
	// latency — the gap from the published edge back to the playhead
	// ((edge-k-1)*chunkSec + buffered media) — sampled after each chunk
	// streamed while the manifest was live.
	LiveLatencyMeanSec float64
	LiveLatencyMaxSec  float64

	// play is the session's playout ledger, as the session left it.
	play playout
}

// DefaultBufferTargetSec is the MPC target of a session naming none.
const DefaultBufferTargetSec = 2

// estProfile is the 360JND profile of every session's PSPNR estimate.
var estProfile = jnd.Default()

// MeanEstPSPNR returns the mean estimated viewport PSPNR of the delivered
// chunks (0 without any), a watched session's pano_client_session_pspnr_db.
func (r *StreamResult) MeanEstPSPNR() float64 { return r.meanEstPSPNR(nil) }

// meanEstPSPNR is MeanEstPSPNR, each chunk's estimate observed into h
// (nil: nowhere) on the way: the §6.1 estimate of the viewport PSPNR the
// chunk delivered, under its Guess.
func (r *StreamResult) meanEstPSPNR(h *obs.Histogram) float64 {
	var sum float64
	for i := range r.Chunks {
		cr := &r.Chunks[i]
		e := player.FramePSPNRDegraded(r.Manifest, cr.Chunk, cr.Levels, cr.Stale, cr.Guess, estProfile)
		h.Observe(e)
		sum += e
	}
	return sum / float64(max(1, len(r.Chunks)))
}

// MOS returns the Table 3 opinion-score band of MeanEstPSPNR.
func (r *StreamResult) MOS() int { return quality.MOSFromPSPNR(r.MeanEstPSPNR()) }

// Stream runs a full adaptive session: fetch manifest, then per chunk
// run MPC + the planner, fetch every tile at its chosen level through
// the resilient pipeline (cfg.Fetch), and account throughput. The
// viewpoint trace plays the role of the HMD sensor feed. A chunk's
// planned GETs go out at once, as concurrent requests through c.HTTP
// (see httpTurn): over HTTP/2, streams of one connection.
//
// Tile failures never abort the session: a failing tile is retried with
// backoff, re-fetched at the lowest level, and finally skipped
// (stitched at previous content per §7) while the session continues.
// Only manifest failure and context cancellation return an error.
func (c *Client) Stream(ctx context.Context, tr *viewport.Trace, cfg StreamConfig) (*StreamResult, error) {
	t := &httpTurn{Client: c, k: -1}
	defer t.end()
	return RunSession(ctx, t, tr, cfg)
}

// RunSession runs the full adaptive session loop (estimate → MPC →
// assign → fetch → stitch → QoE) over an arbitrary Transport and
// Clock. It is the repo's only session loop: Client.Stream is it over
// HTTP and the wall clock, sim.Run over one emulated link and
// internal/swarm over a logical network, both in virtual time. See
// Stream for the loop's contract.
// Every session runs one chunk-level model (cold start at the lowest
// level, horizonRow's qualities, leftover capacity topping up the
// budget), and its watcher (see watch) records it. Its buffer,
// startup and stalls are one playout ledger's (see playout).
func RunSession(ctx context.Context, tp Transport, tr *viewport.Trace, cfg StreamConfig) (result *StreamResult, err error) {
	if cfg.BufferTargetSec == 0 {
		cfg.BufferTargetSec = DefaultBufferTargetSec
	}
	if cfg.Planner == nil {
		cfg.Planner = player.NewPanoPlanner()
	}
	if cfg.Clock == nil {
		cfg.Clock = RealClock{}
	}
	clk := cfg.Clock
	pol := cfg.Fetch.WithDefaults()

	res := &StreamResult{}
	play := &res.play
	var w *watcher
	ctx, w, res.TraceID = watch(ctx, &cfg, tp.Target())
	play.at = clk.Now()
	defer func() {
		res.RebufferSec = play.stall.Seconds()
		w.end(res, err)
	}()

	m, err := tp.Manifest(ctx)
	if err != nil {
		return nil, err
	}
	res.Manifest = m
	w.streaming(m)
	play.read(clk)
	chunkDur, maxBuffer := nettrace.Nanos(m.ChunkSec), nettrace.Nanos(cfg.MaxBufferSec)
	turner, _ := tp.(Turner)
	fetcher := Fetcher{tp: tp, clk: clk, pol: pol, rng: mathx.NewRNG(pol.Seed + 0xba0ff), w: w}

	est := player.NewEstimator()
	mpc := abr.NewMPC(cfg.BufferTargetSec)
	var ctrl abr.Controller = mpc
	if cfg.Controller != nil {
		ctrl = cfg.Controller
	}
	bw := abr.NewBandwidthPredictor()
	live := m.Live
	livePol := cfg.Live.withDefaults(m)
	if n := m.NumChunks() - m.FirstChunk; !live && n > 0 {
		if cfg.MaxChunks > 0 && cfg.MaxChunks < n {
			n = cfg.MaxChunks
		}
		res.Chunks = make([]ChunkResult, 0, n)
	}
	var liveLatSum float64
	liveChunks := 0
	prev := codec.Level(-1)
	for k := m.FirstChunk; ; k++ {
		if cfg.MaxChunks > 0 && len(res.Chunks) >= cfg.MaxChunks {
			break
		}
		if live {
			// Never schedule a fetch at or past the live edge: block here
			// polling the manifest (and let the catch-up policy move k)
			// until chunk k is published, the feed ends, or it times out.
			sr, lerr := liveEdgeSync(ctx, tp, clk, m, k, livePol, w)
			if lerr != nil {
				return nil, lerr
			}
			m, k, live = sr.m, sr.k, sr.m.Live
			res.Manifest = m
			res.LiveSkippedChunks += sr.skipped
			w.liveSynced(play.read(clk), sr.waited) // playback went on while the session waited
			if sr.waited > 0 {
				res.LiveEdgeWaits++
				res.LiveEdgeWaitSec += sr.waited.Seconds()
			}
			if sr.ended {
				break
			}
		}
		if k >= m.NumChunks() {
			break
		}
		cctx := w.chunkStart(ctx, k)
		buffered := play.buffer.Seconds()
		nowMedia := max(0, float64(k)*m.ChunkSec-buffered) // the playhead
		// Phase: bandwidth + viewpoint estimation.
		w.open(cctx, "estimate")
		raw := bw.Predict()
		pred := raw
		if cfg.MaxRateBps > 0 && pred > cfg.MaxRateBps {
			pred = cfg.MaxRateBps
		}
		view := est.View(m, tr, k, nowMedia)
		w.estimated(pred)
		// Phase: chunk-level MPC decision. horizon[0] is chunk k's own
		// menu: its Bits are the budget of whichever level is picked.
		horizon := player.Horizon(m, k, min(k+mpc.Horizon, m.NumChunks()))
		var budget float64
		if pred == 0 {
			// Cold start pins prev so the switch penalty binds from
			// chunk 1.
			budget = horizon[0].Bits[codec.NumLevels-1]
			prev = codec.Level(codec.NumLevels - 1)
		} else {
			if cfg.BWErrorFrac > 0 {
				sign := 1.0
				if k%2 == 1 {
					sign = -1
				}
				pred *= 1 + sign*cfg.BWErrorFrac
			}
			w.open(cctx, "mpc")
			lv := ctrl.PickLevel(buffered, pred, m.ChunkSec, prev, horizon)
			w.picked(buffered, pred, lv, len(horizon))
			budget = horizon[0].Bits[lv]
			prev = lv
			// The level menu is coarse; fill the remaining predicted
			// capacity so the tile allocator can spend what the link
			// actually offers (identically for every system).
			capacity := 0.9 * pred * (m.ChunkSec + math.Max(0, buffered-cfg.BufferTargetSec))
			if capacity > budget {
				budget = math.Min(capacity, horizon[0].Bits[0])
			}
		}
		// Phase: per-tile quality assignment.
		w.open(cctx, "assign")
		alloc := cfg.Planner.Plan(m, k, view, budget)
		w.assigned(budget, len(alloc))

		// Phase: tile fetches through the resilient ladder, the first
		// attempts sent as one turn when the transport has turns.
		fctx := w.open(cctx, "fetch")
		t0 := clk.Now()
		if turner != nil {
			turner.Turn(fctx, k, alloc)
		}
		cr := ChunkResult{Chunk: k, Planned: alloc, Levels: append(abr.Allocation(nil), alloc...)}
		var goodTime time.Duration
		var tf tileFetch
		// Every attempt of the chunk gets the same deadline: the buffer it
		// is derived from moves only between chunks.
		deadline := pol.attemptTimeout(play.buffer, !play.started)
		for ti, l := range alloc {
			ferr := fetcher.fetch(fctx, k, ti, l, deadline, &tf)
			cr.Retries += tf.retries
			if ferr != nil {
				res.TotalRetries += cr.Retries
				return nil, ferr
			}
			cr.Levels[ti] = tf.level
			if tf.skipped {
				cr.Skipped++
				if cr.Stale == nil {
					cr.Stale = make([]bool, len(alloc))
				}
				cr.Stale[ti] = true
				cr.Levels[ti] = codec.Level(codec.NumLevels - 1)
				continue
			}
			if tf.degraded {
				cr.Degraded++
			}
			cr.Bytes += int(tf.bits) / 8
			cr.Bits += tf.bits
			goodTime += tf.goodput
		}
		cr.Download = clk.Since(t0)
		// Throughput from successful attempts only: retry and backoff
		// overhead must not poison the bandwidth predictor.
		if cr.Bits > 0 {
			if goodTime <= 0 {
				goodTime = time.Microsecond
			}
			cr.Throughput = cr.Bits / goodTime.Seconds()
			bw.Observe(cr.Throughput)
		}
		w.fetched(&cr, raw)
		cr.Guess = view.BestGuess(tr, nowMedia)
		res.Chunks = append(res.Chunks, cr)
		res.TotalBytes += cr.Bytes
		res.TotalRetries += cr.Retries
		res.DegradedTiles += cr.Degraded
		res.SkippedTiles += cr.Skipped
		stall := play.read(clk)
		if play.land(chunkDur) {
			res.StartupDelay = play.startup
		}
		if idle := play.idleTo(maxBuffer); idle > 0 {
			// Paced prefetch: playback drains the surplus while the
			// session idles.
			if serr := clk.Sleep(ctx, idle); serr != nil {
				return nil, serr
			}
		}
		landed := &res.Chunks[len(res.Chunks)-1]
		if cfg.ScoreChunk != nil {
			// Phase: stitch + viewport-quality scoring of what was
			// actually delivered (degraded/stale tiles included).
			cfg.ScoreChunk(w.open(cctx, "stitch"), landed)
		}
		buffered = play.buffer.Seconds()
		var lat float64
		if live {
			// Live latency: fully published chunks between the playhead
			// and the edge, plus the media already buffered.
			lat = float64(m.NumChunks()-k-1)*m.ChunkSec + buffered
			liveLatSum += lat
			liveChunks++
			res.LiveLatencyMaxSec = max(res.LiveLatencyMaxSec, lat)
		}
		w.chunkDone(landed, stall.Seconds(), buffered, live, lat)
	}
	if liveChunks > 0 {
		res.LiveLatencyMeanSec = liveLatSum / float64(liveChunks)
	}
	return res, nil
}

// Stitch assembles per-tile luma buffers into a panoramic frame using
// the tile coordinates from the manifest — the row-major in-memory copy
// of §7. Missing tiles are left at their previous content (zero for a
// fresh frame).
func Stitch(m *manifest.Video, k int, tiles map[int]*frame.Frame, dst *frame.Frame) error {
	if dst.W != m.W || dst.H != m.H {
		return fmt.Errorf("client: stitch target %dx%d, want %dx%d", dst.W, dst.H, m.W, m.H)
	}
	if k < 0 || k >= m.NumChunks() {
		return fmt.Errorf("client: stitch chunk %d out of range", k)
	}
	for ti, tf := range tiles {
		if ti < 0 || ti >= len(m.Chunks[k].Tiles) {
			return fmt.Errorf("client: stitch tile %d out of range", ti)
		}
		r := m.Chunks[k].Tiles[ti].Rect
		if tf.W != r.W() || tf.H != r.H() {
			return fmt.Errorf("client: tile %d buffer %dx%d, rect %v", ti, tf.W, tf.H, r)
		}
		if err := dst.Blit(tf, r.X0, r.Y0); err != nil {
			return err
		}
	}
	return nil
}
