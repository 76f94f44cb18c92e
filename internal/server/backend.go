package server

import (
	"errors"
	"fmt"

	"pano/internal/codec"
	"pano/internal/manifest"
)

// Backend supplies manifest and tile objects dynamically, for servers
// whose content changes underneath them — internal/store's Backend
// reads a shared content-addressed store that a live publisher appends
// to, which is what makes N origins stateless front-ends over one
// directory; server.New wraps a fixed manifest in an in-memory one, so
// both constructors share every handler.
type Backend interface {
	// Manifest returns the current manifest, its exact wire encoding,
	// and the ETag of those bytes. Implementations refresh on change;
	// every origin over the same store returns identical bytes and tags.
	Manifest() (*manifest.Video, []byte, string, error)
	// Tile resolves a tile once per request: its size and strong ETag,
	// and a read the handler invokes only when it is about to send a
	// body (not for HEAD, not for a 304). It returns ErrObjectNotFound
	// for not-yet-published objects and ErrObjectGone for objects retired
	// from the availability window; read may itself return ErrObjectGone
	// when the bytes were collected after the tile was resolved.
	Tile(k, ti int, l codec.Level) (st TileStat, read func() ([]byte, error), err error)
}

// TileStat is a tile object's serving metadata. Size is the nominal
// size; the payload on the wire is never shorter than its 16-byte
// header (TilePayload).
type TileStat struct {
	Size int
	ETag string
}

// ErrObjectNotFound maps to 404: the object is not (yet) published.
var ErrObjectNotFound = errors.New("server: object not found")

// ErrObjectGone maps to 410: the object was published and has been
// retired from the availability window — it is never coming back, which
// downstream caches may negative-cache harder than a 404.
var ErrObjectGone = errors.New("server: object gone")

// NewBackend returns a server that serves manifest and tiles through b
// instead of from process memory. The initial snapshot is validated
// once; later refreshes are trusted to come from a publisher that
// validated before publishing.
func NewBackend(b Backend, opts ...Option) (*Server, error) {
	man, _, _, err := b.Manifest()
	if err != nil {
		return nil, fmt.Errorf("server: backend: %w", err)
	}
	if err := man.Validate(); err != nil {
		return nil, fmt.Errorf("server: backend: %w", err)
	}
	return newServer(man, b, opts), nil
}
