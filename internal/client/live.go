package client

import (
	"context"
	"time"

	"pano/internal/manifest"
	"pano/internal/nettrace"
)

// LivePolicy tunes live-edge behaviour; it is only consulted when the
// manifest announces itself live (manifest.Video.Live). The zero value
// selects defaults derived from the chunk duration.
type LivePolicy struct {
	// PollInterval is the manifest refresh cadence while the session is
	// blocked at the live edge (default: the manifest's
	// RefreshInterval, the origin's live max-age).
	PollInterval time.Duration
	// MaxLatencyChunks is the live rebuffer policy: when the playhead
	// falls further than this many chunks behind the edge (a stall, or
	// rejoining after falling out of the availability window), the
	// session skips forward to the newest published chunk instead of
	// draining the backlog (default 4).
	MaxLatencyChunks int
	// EdgeTimeout bounds how long the session waits at the edge without
	// the manifest growing before concluding the feed died; the session
	// then ends cleanly rather than erroring (default 30 chunk
	// durations).
	EdgeTimeout time.Duration
}

func (p LivePolicy) withDefaults(m *manifest.Video) LivePolicy {
	if p.PollInterval <= 0 {
		p.PollInterval = m.RefreshInterval()
	}
	if p.MaxLatencyChunks <= 0 {
		p.MaxLatencyChunks = 4
	}
	if p.EdgeTimeout <= 0 {
		p.EdgeTimeout = 30 * nettrace.Nanos(m.ChunkSec)
		if p.EdgeTimeout <= 0 {
			p.EdgeTimeout = 30 * time.Second
		}
	}
	return p
}

// liveSyncResult is what one edge synchronisation resolves to: the
// manifest and chunk to go on with, whether the session ended, the
// chunks it skipped and the clock across its polls and refreshes.
type liveSyncResult struct {
	m       *manifest.Video
	k       int
	ended   bool
	skipped int
	waited  time.Duration
}

// liveEdgeSync blocks until chunk k is streamable against a live
// manifest: it skips forward when k fell out of the availability window
// or too far behind the edge, and while k is AT the edge it polls the
// manifest — the client never schedules a fetch past the edge, the
// refresh is how it learns the edge moved. Its wait, refreshes
// included, is time the caller's playout ledger reads off the clock:
// startup before the first chunk has landed, buffered media and then a
// stall after (bounded by pol.EdgeTimeout, over poll intervals alone,
// and the skip policy).
//
// Only ctx cancellation returns an error; a dead feed or an
// out-of-reach manifest ends the session cleanly (ended=true), never
// aborts it.
func liveEdgeSync(ctx context.Context, tp Transport, clk Clock, m *manifest.Video, k int,
	pol LivePolicy, w *watcher) (liveSyncResult, error) {

	skipped, t0 := 0, clk.Now()
	var waited, quiet time.Duration // quiet: poll intervals since the edge last moved
	for {
		// Behind the availability window: the origin would answer 410 for
		// every tile of k. Skip to the window start (at minimum).
		if k < m.FirstChunk {
			skipped += m.FirstChunk - k
			w.liveSkip("window_expired", k, m.FirstChunk)
			k = m.FirstChunk
		}
		if edge := m.NumChunks(); k < edge {
			// Too far behind the edge: skip to the newest published chunk
			// instead of draining a backlog that keeps growing.
			if edge-k > pol.MaxLatencyChunks {
				to := edge - 1
				skipped += to - k
				w.liveSkip("latency", k, to)
				k = to
			}
			return liveSyncResult{m: m, k: k, skipped: skipped, waited: waited}, nil
		}
		if !m.Live {
			// Feed ended and k is past the final chunk: end of session.
			return liveSyncResult{m: m, k: k, ended: true, skipped: skipped, waited: waited}, nil
		}
		if quiet >= pol.EdgeTimeout {
			w.liveTimeout(k, quiet)
			return liveSyncResult{m: m, k: k, ended: true, skipped: skipped, waited: waited}, nil
		}
		d := pol.PollInterval
		if err := clk.Sleep(ctx, d); err != nil {
			return liveSyncResult{}, err
		}
		quiet += d
		m2, err := tp.Manifest(ctx)
		waited = clk.Since(t0)
		if err != nil {
			if ctx.Err() != nil {
				return liveSyncResult{}, ctx.Err()
			}
			// Transient refresh failure: keep the old manifest, retry
			// until EdgeTimeout. Refresh errors never abort a session.
			w.liveRefreshFailed(err)
			continue
		}
		// Monotonicity: never adopt a refresh whose edge or sequence went
		// backwards (e.g. a lagging origin behind a different edge cache).
		if m2.NumChunks() >= m.NumChunks() && m2.Seq >= m.Seq {
			if m2.NumChunks() > m.NumChunks() {
				quiet = 0 // the edge moved; restart the death watch
			}
			m = m2
		}
	}
}
