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
	"log/slog"
	"math"
	"net/http"
	"slices"
	"strconv"
	"time"

	"pano/internal/abr"
	"pano/internal/codec"
	"pano/internal/frame"
	"pano/internal/jnd"
	"pano/internal/manifest"
	"pano/internal/mathx"
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
	// PlayheadSec the media time that was playing when the chunk was
	// planned, and View what the planner was told of the viewpoint: the
	// plan-time facts a scorer needs next to what arrived.
	Planned     abr.Allocation
	PlayheadSec float64
	View        player.ChunkView
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
	// BufferTargetSec is the MPC target (default 2).
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
	// disables instrumentation at zero cost.
	Obs *obs.Registry
	// Log receives structured per-chunk events and a session_summary
	// event that fires on every exit path, success or failure, with a
	// terminal status; nil disables it.
	Log *obs.EventLog
	// Fetch tunes the resilient tile pipeline (retries, deadlines, the
	// degradation ladder). The zero value selects DefaultFetchPolicy.
	Fetch FetchPolicy
	// Trace, when set, records the session as a span tree — session →
	// chunk → {estimate, mpc, assign, fetch, stitch} — with the
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
	// MaxBufferSec caps prefetch: when the post-chunk buffer would exceed
	// it, the session idles on the Clock without draining (playback
	// continues against buffered media).
	// 0 disables pacing — the historical HTTP behaviour, where the
	// real link is the pace.
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
	// StartupDelay is manifest fetch + first chunk download.
	StartupDelay time.Duration
	TotalBytes   int
	// RebufferSec is the total stall time implied by the playout
	// buffer model (download time exceeding the buffer).
	RebufferSec float64
	// MeanEstPSPNR is the session-average client-estimated viewport
	// PSPNR. It is only computed when Obs or Log is attached (the
	// estimate costs CPU); 0 otherwise.
	MeanEstPSPNR float64
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
	// time spent blocked there. Zero for VOD sessions.
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
}

// MOS returns the Table 3 opinion-score band of the session's
// estimated quality (meaningful only when MeanEstPSPNR was computed).
func (r *StreamResult) MOS() int { return quality.MOSFromPSPNR(r.MeanEstPSPNR) }

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
//
// When cfg.Log is attached, Stream emits a session_summary event on
// every exit path — success or failure — with a terminal status: "ok",
// "tile_degraded", "tile_skipped", "manifest_error", or "canceled".
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
// budget), and the loop times and traces its own phases.
func RunSession(ctx context.Context, tp Transport, tr *viewport.Trace, cfg StreamConfig) (result *StreamResult, err error) {
	if cfg.BufferTargetSec == 0 {
		cfg.BufferTargetSec = 2
	}
	if cfg.Planner == nil {
		cfg.Planner = player.NewPanoPlanner()
	}
	if cfg.Clock == nil {
		cfg.Clock = RealClock{}
	}
	clk := cfg.Clock
	instrumented := cfg.Obs != nil || cfg.Log != nil
	pol := cfg.Fetch.WithDefaults()

	res := &StreamResult{}
	// sess is nil without an event log and traced false without a span
	// in ctx: every call site below checks before it builds an argument
	// list, so an unobserved session boxes and allocates nothing for
	// either.
	var sess *slog.Logger
	if cfg.Log != nil {
		sess = cfg.Log.Session("planner", cfg.Planner.Name(), "base_url", tp.Target())
	}
	var sessSpan *trace.Span
	if cfg.Trace != nil {
		ctx, sessSpan = cfg.Trace.Start(ctx, "session",
			trace.A("component", "client"), trace.A("planner", cfg.Planner.Name()),
			trace.A("base_url", tp.Target()))
	}
	traced := trace.FromContext(ctx) != nil
	res.TraceID = sessSpan.TraceHex()
	if res.TraceID != "" && sess != nil {
		sess = sess.With("trace_id", res.TraceID)
	}
	stage := "manifest"
	start := clk.Now()
	defer func() {
		status := "ok"
		switch {
		case err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)):
			status = "canceled"
		case err != nil && stage == "manifest":
			status = "manifest_error"
		case err != nil:
			status = "tile_error"
		case res.SkippedTiles > 0:
			status = "tile_skipped"
		case res.DegradedTiles > 0:
			status = "tile_degraded"
		}
		if sessSpan != nil {
			sessSpan.Annotate("status", status)
			sessSpan.Annotate("chunks", len(res.Chunks))
			sessSpan.Annotate("retries", res.TotalRetries)
			if err != nil {
				sessSpan.SetError(status)
			}
			sessSpan.End()
		}
		if cfg.Obs != nil {
			cfg.Obs.Counter("pano_client_sessions_total", "streaming sessions by terminal status",
				obs.L("status", status)).Inc()
		}
		if sess == nil {
			return
		}
		args := []any{
			"status", status, "chunks_streamed", len(res.Chunks),
			"total_bytes", res.TotalBytes, "rebuffer_sec", res.RebufferSec,
			"startup_sec", res.StartupDelay.Seconds(),
			"elapsed_sec", clk.Since(start).Seconds(),
			"retries", res.TotalRetries,
			"tiles_degraded", res.DegradedTiles, "tiles_skipped", res.SkippedTiles,
		}
		if instrumented {
			args = append(args, "mean_est_pspnr_db", res.MeanEstPSPNR, "mos", res.MOS())
		}
		if err != nil {
			args = append(args, "error", err.Error())
		}
		sess.Info("session_summary", args...)
	}()

	m, err := tp.Manifest(ctx)
	if err != nil {
		return nil, err
	}
	stage = "stream"
	res.Manifest = m
	tiles0 := 0
	if len(m.Chunks) > 0 {
		tiles0 = len(m.Chunks[0].Tiles)
	}
	if sess != nil {
		sess = sess.With("video", m.Name, "chunks", m.NumChunks(), "tiles", tiles0)
		if m.Live {
			sess = sess.With("live", true)
		}
	}

	// QoE instruments (no-ops when cfg.Obs is nil).
	chunksTotal := cfg.Obs.Counter("pano_client_chunks_total", "chunks streamed")
	bytesTotal := cfg.Obs.Counter("pano_client_bytes_total", "media bytes downloaded")
	rebufTotal := cfg.Obs.Counter("pano_client_rebuffer_seconds_total", "total stall seconds")
	dlSeconds := cfg.Obs.Histogram("pano_client_chunk_download_seconds",
		"per-chunk download time over HTTP", nil)
	estPSPNR := cfg.Obs.Histogram("pano_client_est_pspnr_db",
		"client-estimated per-chunk viewport PSPNR", quality.PSPNRBuckets)
	bufGauge := cfg.Obs.Gauge("pano_client_buffer_sec", "playback buffer after each chunk")
	var prof *jnd.Profile
	if instrumented {
		prof = jnd.Default()
	}
	ins := newFetchInstruments(cfg.Obs)
	dec := newDecisionInstruments(cfg.Obs, cfg.Planner.Name())
	turner, _ := tp.(Turner)
	fetchRNG := mathx.NewRNG(pol.Seed + 0xba0ff)

	est := player.NewEstimator()
	mpc := abr.NewMPC(cfg.BufferTargetSec)
	var ctrl abr.Controller = mpc
	if cfg.Controller != nil {
		ctrl = cfg.Controller
	}
	bw := abr.NewBandwidthPredictor()
	live := m.Live
	livePol := cfg.Live.withDefaults(m)
	liveIns := liveInstruments{reg: cfg.Obs}
	var liveLat *obs.Gauge
	var menus horizonMemo
	if n := m.NumChunks() - m.FirstChunk; !live && n > 0 {
		if cfg.MaxChunks > 0 && cfg.MaxChunks < n {
			n = cfg.MaxChunks
		}
		res.Chunks = make([]ChunkResult, 0, n)
	}
	var buffer, estSum float64
	var liveLatSum float64
	liveChunks := 0
	prev := codec.Level(-1)
	streamed := 0
	for k := m.FirstChunk; ; k++ {
		if cfg.MaxChunks > 0 && streamed >= cfg.MaxChunks {
			break
		}
		if live {
			// Never schedule a fetch at or past the live edge: block here
			// polling the manifest (and let the catch-up policy move k)
			// until chunk k is published, the feed ends, or it times out.
			sr, lerr := liveEdgeSync(ctx, tp, clk, m, k, livePol, &buffer, res, &liveIns, rebufTotal, sess)
			if lerr != nil {
				return nil, lerr
			}
			m, k, live = sr.m, sr.k, sr.m.Live
			res.Manifest = m
			if sr.ended {
				break
			}
		}
		if k >= m.NumChunks() {
			break
		}
		cctx, chunkSpan := ctx, (*trace.Span)(nil)
		if traced {
			cctx, chunkSpan = trace.StartSpan(ctx, "chunk", trace.A("chunk", k))
		}
		nowMedia := float64(k)*m.ChunkSec - buffer
		if nowMedia < 0 {
			nowMedia = 0
		}
		// Phase: bandwidth + viewpoint estimation.
		_, eSpan := trace.StartSpan(cctx, "estimate")
		raw := bw.Predict()
		pred := raw
		if cfg.MaxRateBps > 0 && pred > cfg.MaxRateBps {
			pred = cfg.MaxRateBps
		}
		view := est.View(m, tr, k, nowMedia)
		if eSpan != nil {
			eSpan.Annotate("pred_bps", pred)
			eSpan.End()
		}
		// Phase: chunk-level MPC decision. horizon[0] is chunk k's own
		// menu: its Bits are the budget of whichever level is picked.
		horizon := menus.window(m, k, min(k+mpc.Horizon, m.NumChunks()))
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
			lv := dec.pickLevel(cctx, ctrl, buffer, pred, m.ChunkSec, prev, horizon)
			budget = horizon[0].Bits[lv]
			prev = lv
			// The level menu is coarse; fill the remaining predicted
			// capacity so the tile allocator can spend what the link
			// actually offers (identically for every system).
			capacity := 0.9 * pred * (m.ChunkSec + math.Max(0, buffer-cfg.BufferTargetSec))
			if capacity > budget {
				budget = math.Min(capacity, horizon[0].Bits[0])
			}
		}
		// Phase: per-tile quality assignment.
		alloc := dec.plan(cctx, cfg.Planner, m, k, view, budget)

		// Phase: tile fetches through the resilient ladder, the first
		// attempts sent as one turn when the transport has turns.
		fctx, fSpan := trace.StartSpan(cctx, "fetch")
		t0 := clk.Now()
		if turner != nil {
			turner.Turn(fctx, k, alloc)
		}
		bytes := 0
		var goodBits float64
		var goodTime, slowest time.Duration
		var retries, degraded, skipped, slowTile int
		delivered := append(abr.Allocation(nil), alloc...)
		var stale []bool
		for ti, l := range alloc {
			tf, ferr := fetchTileResilient(fctx, tp, clk, k, ti, l, pol, buffer, k == 0, fetchRNG, &ins, sess)
			if tf.first > slowest {
				slowest, slowTile = tf.first, ti
			}
			retries += tf.retries
			if ferr != nil {
				res.TotalRetries += retries
				fSpan.SetError("canceled")
				fSpan.End()
				chunkSpan.End()
				return nil, ferr
			}
			delivered[ti] = tf.level
			if tf.skipped {
				skipped++
				if stale == nil {
					stale = make([]bool, len(alloc))
				}
				stale[ti] = true
				delivered[ti] = codec.Level(codec.NumLevels - 1)
				continue
			}
			if tf.degraded {
				degraded++
			}
			bytes += int(tf.bits) / 8
			goodBits += tf.bits
			goodTime += tf.goodput
		}
		dl := clk.Since(t0)
		if dl <= 0 {
			dl = time.Microsecond
		}
		if fSpan != nil {
			fSpan.Annotate("tiles", len(alloc))
			fSpan.Annotate("slowest_tile", slowTile)
			fSpan.Annotate("slowest_sec", slowest.Seconds())
			fSpan.Annotate("bytes", bytes)
			fSpan.Annotate("retries", retries)
			fSpan.Annotate("tiles_degraded", degraded)
			fSpan.Annotate("tiles_skipped", skipped)
			fSpan.End()
		}
		// Throughput from successful attempts only: retry and backoff
		// overhead must not poison the bandwidth predictor.
		var thr float64
		if goodBits > 0 {
			if goodTime <= 0 {
				goodTime = time.Microsecond
			}
			thr = goodBits / goodTime.Seconds()
			dec.predictionError(raw, thr)
			bw.Observe(thr)
		}
		res.Chunks = append(res.Chunks, ChunkResult{
			Chunk: k, Planned: alloc, PlayheadSec: nowMedia, View: view,
			Levels: delivered, Bytes: bytes, Bits: goodBits, Download: dl, Throughput: thr,
			Retries: retries, Degraded: degraded, Skipped: skipped, Stale: stale,
		})
		res.TotalBytes += bytes
		res.TotalRetries += retries
		res.DegradedTiles += degraded
		res.SkippedTiles += skipped
		if streamed == 0 {
			res.StartupDelay = clk.Since(start)
		}
		var stall float64
		if streamed > 0 && dl.Seconds() > buffer {
			stall = dl.Seconds() - buffer
			res.RebufferSec += stall
		}
		buffer = buffer - dl.Seconds()
		if buffer < 0 {
			buffer = 0
		}
		buffer += m.ChunkSec
		if cfg.MaxBufferSec > 0 && buffer > cfg.MaxBufferSec {
			// Paced prefetch: idle without draining — playback continues
			// against the buffered media.
			idle := buffer - cfg.MaxBufferSec
			if serr := clk.Sleep(ctx, time.Duration(idle*float64(time.Second))); serr != nil {
				chunkSpan.End()
				return nil, serr
			}
			buffer = cfg.MaxBufferSec
		}

		chunksTotal.Inc()
		bytesTotal.Add(float64(bytes))
		rebufTotal.Add(stall)
		dlSeconds.ObserveExemplar(dl.Seconds(), chunkSpan.TraceHex())
		bufGauge.Set(buffer)
		if instrumented || cfg.ScoreChunk != nil {
			// Phase: stitch + viewport-quality scoring of what was
			// actually delivered (degraded/stale tiles included).
			sctx, sSpan := trace.StartSpan(cctx, "stitch")
			if cfg.ScoreChunk != nil {
				cfg.ScoreChunk(sctx, &res.Chunks[len(res.Chunks)-1])
			}
			if instrumented {
				e := player.FramePSPNRDegraded(m, k, delivered, stale, view.BestGuess(tr, nowMedia), prof)
				if sSpan != nil {
					sSpan.Annotate("est_pspnr_db", e)
				}
				estPSPNR.Observe(e)
				estSum += e
				res.MeanEstPSPNR = estSum / float64(streamed+1)
				if sess != nil {
					sess.Debug("chunk_done",
						"chunk", k, "bytes", bytes, "download_sec", dl.Seconds(),
						"throughput_bps", thr, "stall_sec", stall, "buffer_sec", buffer,
						"est_pspnr_db", e, "retries", retries,
						"tiles_degraded", degraded, "tiles_skipped", skipped)
				}
			}
			sSpan.End()
		}
		if chunkSpan != nil {
			chunkSpan.Annotate("bytes", bytes)
			chunkSpan.Annotate("stall_sec", stall)
			chunkSpan.Annotate("buffer_sec", buffer)
			chunkSpan.Annotate("throughput_bps", thr)
		}
		if live {
			// Live latency: fully published chunks between the playhead
			// and the edge, plus the media already buffered.
			lat := float64(m.NumChunks()-k-1)*m.ChunkSec + buffer
			liveLatSum += lat
			liveChunks++
			if lat > res.LiveLatencyMaxSec {
				res.LiveLatencyMaxSec = lat
			}
			if liveLat == nil {
				liveLat = cfg.Obs.Gauge("pano_client_live_latency_sec",
					"playhead-to-edge live latency after each chunk")
			}
			liveLat.Set(lat)
			if chunkSpan != nil {
				chunkSpan.Annotate("live_latency_sec", lat)
			}
		}
		chunkSpan.End()
		streamed++
	}
	if liveChunks > 0 {
		res.LiveLatencyMeanSec = liveLatSum / float64(liveChunks)
	}
	if instrumented {
		cfg.Obs.Gauge("pano_client_session_pspnr_db",
			"session mean client-estimated viewport PSPNR").Set(res.MeanEstPSPNR)
		cfg.Obs.Gauge("pano_client_session_mos",
			"Table 3 opinion-score band of the estimated session quality").Set(float64(res.MOS()))
	}
	return res, nil
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
		p.Quality[l] = player.MeanRefPSPNR(m, j, codec.Level(l)) / 10
	}
	return p
}

// horizonMemo keeps a session's horizon rows. A row is a function of
// the manifest alone, so it is computed once per manifest the session
// sees rather than once per chunk that looks ahead to it; a live
// refresh is a new *manifest.Video (or a longer one) and starts over.
type horizonMemo struct {
	m    *manifest.Video
	rows []abr.ChunkPlan
	have []bool
}

// window returns the rows of chunks [lo, hi) of m, valid until the next
// call.
func (h *horizonMemo) window(m *manifest.Video, lo, hi int) []abr.ChunkPlan {
	if n := m.NumChunks(); h.m != m || len(h.rows) != n {
		h.m = m
		h.rows = slices.Grow(h.rows[:0], n)[:n]
		h.have = slices.Grow(h.have[:0], n)[:n]
		clear(h.have)
	}
	for j := lo; j < hi; j++ {
		if !h.have[j] {
			h.rows[j], h.have[j] = horizonRow(m, j), true
		}
	}
	return h.rows[lo:hi]
}

// BWErrorBuckets are relative-error bounds for the predicted-vs-actual
// bandwidth histogram (0 = perfect; the paper stresses up to 40%).
var BWErrorBuckets = []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.8, 1.6}

// decisionInstruments are a session's obs handles on its two decision
// phases, all nil without a registry. A level's decision counter is
// resolved at that level's first pick, so no series exists before its
// traffic.
type decisionInstruments struct {
	reg    *obs.Registry
	plans  *obs.Counter                  // pano_planner_plans_total{planner}
	planS  *obs.Histogram                // pano_planner_plan_seconds{planner}
	pickS  *obs.Histogram                // pano_abr_decision_seconds
	picks  [codec.NumLevels]*obs.Counter // pano_abr_level_decisions_total{level}
	bwErrs *obs.Histogram                // pano_abr_bw_prediction_error_ratio
}

func newDecisionInstruments(reg *obs.Registry, planner string) decisionInstruments {
	lbl := obs.L("planner", planner)
	return decisionInstruments{
		reg: reg,
		plans: reg.Counter("pano_planner_plans_total",
			"tile-level allocation calls by planner", lbl),
		planS: reg.Histogram("pano_planner_plan_seconds",
			"tile-level allocation latency by planner", nil, lbl),
		pickS: reg.Histogram("pano_abr_decision_seconds",
			"chunk-level bitrate decision latency", nil),
		bwErrs: reg.Histogram("pano_abr_bw_prediction_error_ratio",
			"relative error of the harmonic-mean bandwidth prediction vs the next measured throughput",
			BWErrorBuckets),
	}
}

// pickLevel is the chunk-level decision (§6.1's MPC step, or whichever
// Controller the session runs). Under a traced ctx it runs inside an
// "mpc" span annotated with the chosen level and the horizon's depth;
// with a registry its latency, exemplar-linked to the trace, and its
// level are recorded.
func (d *decisionInstruments) pickLevel(ctx context.Context, c abr.Controller, bufferSec, predBWbps, chunkSec float64, prev codec.Level, horizon []abr.ChunkPlan) codec.Level {
	if d.reg == nil && trace.FromContext(ctx) == nil {
		return c.PickLevel(bufferSec, predBWbps, chunkSec, prev, horizon)
	}
	_, sp := trace.StartSpan(ctx, "mpc",
		trace.A("buffer_sec", bufferSec), trace.A("pred_bps", predBWbps))
	t := obs.NewTimer(nil)
	lv := c.PickLevel(bufferSec, predBWbps, chunkSec, prev, horizon)
	sec := t.ObserveDuration().Seconds()
	sp.Annotate("level", int(lv))
	sp.Annotate("horizon", len(horizon))
	sp.End()
	if d.reg != nil {
		d.pickS.ObserveExemplar(sec, sp.TraceHex())
		if d.picks[lv] == nil {
			d.picks[lv] = d.reg.Counter("pano_abr_level_decisions_total",
				"chunk-level decisions by chosen level", obs.L("level", "L"+strconv.Itoa(int(lv))))
		}
		d.picks[lv].Inc()
	}
	return lv
}

// plan is the per-tile quality assignment (§6.1's PSPNR assignment
// step) under the chunk's budget. Under a traced ctx it runs inside an
// "assign" span annotated with the plan's tile count; with a registry
// the call is timed, exemplar-linked to the trace, and counted.
func (d *decisionInstruments) plan(ctx context.Context, p player.Planner, m *manifest.Video, k int, view player.ChunkView, budget float64) abr.Allocation {
	if d.reg == nil && trace.FromContext(ctx) == nil {
		return p.Plan(m, k, view, budget)
	}
	_, sp := trace.StartSpan(ctx, "assign",
		trace.A("planner", p.Name()), trace.A("budget_bits", budget))
	t := obs.NewTimer(nil)
	a := p.Plan(m, k, view, budget)
	sec := t.ObserveDuration().Seconds()
	sp.Annotate("tiles", len(a))
	sp.End()
	d.planS.ObserveExemplar(sec, sp.TraceHex())
	d.plans.Inc()
	return a
}

// predictionError records how far the harmonic-mean prediction made
// before a chunk (pred: before MaxRateBps and BWErrorFrac) was from the
// throughput the chunk then measured, |pred−thr|/thr, the §8.3
// robustness variable. A chunk with no prediction records nothing.
func (d *decisionInstruments) predictionError(pred, thr float64) {
	if pred > 0 {
		d.bwErrs.Observe(math.Abs(pred-thr) / thr)
	}
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
