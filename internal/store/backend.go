package store

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"pano/internal/codec"
	"pano/internal/manifest"
	"pano/internal/server"
)

// Backend adapts a Store to internal/server's dynamic Backend
// interface: any number of origin processes can open the same store
// directory and serve identical bytes with identical ETags, because
// everything they answer — manifest body, tile payloads, tags — is a
// pure function of store content. The catalog head is stat-polled and
// reloaded on change, so a live publisher's appends become visible
// within one request.
type Backend struct {
	s *Store

	mu      sync.Mutex
	cat     *Catalog
	man     *manifest.Video
	manWire []byte
	manETag string
	stamp   catalogStamp
}

// catalogStamp identifies a loaded catalog version by its file
// metadata; rename-replacement always changes it.
type catalogStamp struct {
	mod  time.Time
	size int64
}

var _ server.Backend = (*Backend)(nil)

// NewBackend opens a serving view over the store. It fails if nothing
// has been published yet (no catalog head).
func NewBackend(s *Store) (*Backend, error) {
	b := &Backend{s: s}
	if err := b.reload(); err != nil {
		return nil, err
	}
	return b, nil
}

// reload reads the catalog head and the manifest blob it names.
// Caller must not hold b.mu.
func (b *Backend) reload() error {
	info, err := os.Stat(b.s.catalogPath)
	if err != nil {
		return fmt.Errorf("store: backend: %w", err)
	}
	cat, err := b.s.ReadCatalog()
	if err != nil {
		return err
	}
	manWire, err := b.s.Get(cat.Manifest)
	if err != nil {
		return fmt.Errorf("store: backend: manifest blob: %w", err)
	}
	man, err := manifest.Unmarshal(manWire)
	if err != nil {
		return fmt.Errorf("store: backend: %w", err)
	}
	b.mu.Lock()
	// Never adopt an older head than the one already loaded (a racing
	// stat could observe the file mid-replacement sequence).
	if b.cat == nil || cat.Seq >= b.cat.Seq {
		b.cat, b.man, b.manWire = cat, man, manWire
		// The manifest ETag is the same function of the wire bytes the
		// static server uses (sha256[:8]): the blob digest IS that hash,
		// so the tag falls out of the address.
		b.manETag = `"` + cat.Manifest[:16] + `"`
		b.stamp = catalogStamp{mod: info.ModTime(), size: info.Size()}
	}
	b.mu.Unlock()
	return nil
}

// head returns the current catalog, reloading first iff the head file's
// stamp changed (or force): one stat per call, and deliberately not a
// timed cache — that stat is what makes a publish visible to the very
// next request. A loaded catalog is never modified, so callers read it
// without the lock.
func (b *Backend) head(force bool) (*Catalog, error) {
	if !force {
		info, err := os.Stat(b.s.catalogPath)
		if err != nil {
			return nil, fmt.Errorf("store: backend: %w", err)
		}
		b.mu.Lock()
		cat := b.cat
		unchanged := cat != nil && b.stamp.mod.Equal(info.ModTime()) && b.stamp.size == info.Size()
		b.mu.Unlock()
		if unchanged {
			return cat, nil
		}
	}
	if err := b.reload(); err != nil {
		return nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cat, nil
}

// Manifest implements server.Backend.
func (b *Backend) Manifest() (*manifest.Video, []byte, string, error) {
	if _, err := b.head(false); err != nil {
		return nil, nil, "", err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.man, b.manWire, b.manETag, nil
}

// Tile implements server.Backend: one catalog poll and one lookup per
// request. The ETag is the same pure function of (chunk, tile, level,
// size) the static server derives, so a client moving between a static
// origin and a store origin — or between two store origins —
// revalidates with a single 304.
func (b *Backend) Tile(k, ti int, l codec.Level) (server.TileStat, func() ([]byte, error), error) {
	ref, err := b.lookup(k, ti, l)
	if err != nil {
		return server.TileStat{}, nil, err
	}
	read := func() ([]byte, error) {
		// The blob is TilePayload's, never shorter than its header, so the
		// length to expect is the one the handler declares.
		data, err := b.s.getSized(ref.Digest, max(ref.Size, 16))
		if errors.Is(err, ErrNotFound) {
			// Catalog references a GC'd blob: the retention horizon was
			// shorter than this origin's refresh lag. Resolve as retired.
			return nil, server.ErrObjectGone
		}
		return data, err
	}
	return server.TileStat{Size: ref.Size, ETag: server.TileETag(k, ti, l, ref.Size)}, read, nil
}

// TileStat resolves a tile's size and ETag without touching its blob.
func (b *Backend) TileStat(k, ti int, l codec.Level) (server.TileStat, error) {
	st, _, err := b.Tile(k, ti, l)
	return st, err
}

// TileData returns a tile's payload bytes.
func (b *Backend) TileData(k, ti int, l codec.Level) ([]byte, error) {
	_, read, err := b.Tile(k, ti, l)
	if err != nil {
		return nil, err
	}
	return read()
}

// lookup resolves a tile against the catalog, force-reloading once
// before answering 404 so an origin with a stale head never 404s a tile
// that a fresher catalog already names (the edge would negative-cache
// that miss for NegTTL). The catalog is keyed by URL path; the key is
// rendered into a stack buffer and never becomes a string.
func (b *Backend) lookup(k, ti int, l codec.Level) (TileRef, error) {
	var buf [48]byte
	path := server.AppendTilePath(buf[:0], k, ti, l)
	for _, force := range [2]bool{false, true} {
		cat, err := b.head(force)
		if err != nil {
			return TileRef{}, err
		}
		if ref, ok := cat.Tiles[string(path)]; ok {
			return ref, nil
		}
		if k < cat.FirstChunk {
			return TileRef{}, server.ErrObjectGone
		}
	}
	return TileRef{}, server.ErrObjectNotFound
}
