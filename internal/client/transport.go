package client

import (
	"context"
	"slices"
	"sync"

	"pano/internal/abr"
	"pano/internal/codec"
	"pano/internal/manifest"
	"pano/internal/trace"
)

// Transport abstracts object delivery for the session loop. It has two
// implementations: the HTTP client (paired with RealClock), and
// VirtualNet — a nettrace link plus chaos fault draws in virtual time,
// the one network every simulated session streams over (sim.Run's and
// every internal/swarm session's). Everything the loop learns about the
// network (sizes, errors, elapsed time via the Clock) flows through this
// interface, so the loop itself is transport-agnostic.
type Transport interface {
	// Target names the endpoint for logs and spans (the base URL for
	// HTTP transports).
	Target() string
	// Manifest fetches and validates the video manifest.
	Manifest(ctx context.Context) (*manifest.Video, error)
	// Tile fetches one tile object at the given level and returns the
	// delivered payload size in bits. Implementations must honour ctx,
	// including deadlines installed by the session Clock's WithTimeout,
	// and should classify failures like the HTTP transport does
	// (StatusError for server answers, context.DeadlineExceeded for
	// expiry) so the retry ladder treats both transports identically.
	Tile(ctx context.Context, k, ti int, l codec.Level) (float64, error)
}

// Turner is a Transport that sends a chunk's planned tile requests as
// one turn. RunSession calls Turn once per chunk, after planning and
// before the fetch ladder runs: the transport may send every request
// (tile ti at alloc[ti]) at once, and then answers the ladder's first
// attempt at each tile — at the planned level — from that turn. Every
// other attempt (a retry, a lowest-rung re-fetch) is a fresh request.
// spans is nil on an untraced session; otherwise spans[ti] is the
// attempt span that will read tile ti's answer, whose traceparent its
// request carries.
type Turner interface {
	Turn(ctx context.Context, k int, alloc abr.Allocation, spans []trace.Reserved)
}

// Target implements Transport.
func (c *Client) Target() string { return c.BaseURL }

// Manifest implements Transport.
func (c *Client) Manifest(ctx context.Context) (*manifest.Video, error) {
	return c.FetchManifest(ctx)
}

// Tile implements Transport: FetchTile plus the bits accounting the
// session loop needs.
func (c *Client) Tile(ctx context.Context, k, ti int, l codec.Level) (float64, error) {
	data, err := c.FetchTile(ctx, k, ti, l)
	return float64(len(data) * 8), err
}

// httpTurn is one session's view of a Client, the Turner Stream runs:
// Turn starts each of a chunk's planned tile GETs at once, concurrently,
// through the Client's http.Client, each body read into its tile's slot.
// Over HTTP/2 they are concurrent streams on the session's one
// connection; over HTTP/1.1 each takes a connection of the pool. An
// httpTurn belongs to its session's goroutine, so one Client serves
// concurrent sessions.
type httpTurn struct {
	*Client
	k     int
	slots []slot
	wg    sync.WaitGroup
}

// slot is one planned GET of the turn: its level, whether the ladder has
// read it, and — once done is closed — its answer. cancel ends the
// request.
type slot struct {
	l      codec.Level
	taken  bool
	done   chan struct{}
	cancel context.CancelFunc
	data   []byte
	err    error
}

// Turn implements Turner: chunk k's planned GETs all start now, each
// carrying the traceparent of its reserved attempt span.
func (t *httpTurn) Turn(ctx context.Context, k int, alloc abr.Allocation, spans []trace.Reserved) {
	t.end()
	t.k = k
	t.slots = slices.Grow(t.slots[:0], len(alloc))[:len(alloc)]
	for ti, l := range alloc {
		var parent string
		if spans != nil {
			parent = spans[ti].Traceparent()
		}
		rctx, cancel := context.WithCancel(ctx)
		s := &t.slots[ti]
		*s = slot{l: l, done: make(chan struct{}), cancel: cancel}
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			s.data, s.err = t.fetchTile(rctx, k, ti, l, parent)
			close(s.done)
		}()
	}
}

// Tile implements Transport: the slot's answer when (k, ti, l) is the
// turn's planned request and the ladder has not read it yet, a fresh
// FetchTile otherwise. ctx, the attempt's, bounds the wait; on expiry it
// cancels that request alone.
func (t *httpTurn) Tile(ctx context.Context, k, ti int, l codec.Level) (float64, error) {
	if k != t.k || ti >= len(t.slots) || t.slots[ti].taken || t.slots[ti].l != l {
		return t.Client.Tile(ctx, k, ti, l)
	}
	s := &t.slots[ti]
	s.taken = true
	select {
	case <-s.done:
		return float64(len(s.data) * 8), s.err
	case <-ctx.Done():
		s.cancel()
		return 0, tileErr(k, ti, l, ctx.Err())
	}
}

// end cancels the turn's requests and waits for them to return.
func (t *httpTurn) end() {
	for i := range t.slots {
		t.slots[i].cancel()
	}
	t.wg.Wait()
}
