package client

import (
	"context"

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

// Pipeliner is a Transport that sends a chunk's planned tile requests
// as one pipelined turn. RunSession calls Turn once per chunk, after
// planning and before the fetch ladder runs: the transport may send
// every request (tile ti at alloc[ti]) back to back at once, and then
// answers the ladder's first attempt at each tile — in tile order, at
// the planned level — from that turn. Every other attempt (a retry, a
// lowest-rung re-fetch) is a fresh request. spans is nil on an
// untraced session; otherwise spans[ti] is the attempt span that will
// read tile ti's answer, whose traceparent its request carries.
type Pipeliner interface {
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
