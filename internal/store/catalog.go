package store

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Catalog is the mutable head of the otherwise immutable store: one
// small JSON document naming the manifest blob and the blob of every
// servable tile. The publisher rewrites it atomically after each chunk
// publish (tiles first, catalog last, so the catalog never references
// an unwritten blob); origins poll its stat and reload on change.
type Catalog struct {
	// Seq mirrors the manifest's publish sequence number.
	Seq int64 `json:"seq"`
	// Manifest is the digest of the current manifest blob (the wire
	// encoding, manifest.Marshal).
	Manifest string `json:"manifest"`
	// FirstChunk mirrors the manifest's availability-window start:
	// tiles of chunks below it answer 410 Gone.
	FirstChunk int `json:"firstChunk"`
	// Tiles maps a tile's URL path (server.TilePath) to its blob.
	Tiles map[string]TileRef `json:"tiles"`
}

// TileRef locates one tile object in the store.
type TileRef struct {
	Digest string `json:"digest"`
	Size   int    `json:"size"`
}

// maxTileSize bounds a tile's size in a catalog head: a reader allocates
// that many bytes before it reads the blob, and no tile object comes
// near it.
const maxTileSize = 64 << 20

// validDigest reports whether d names a blob the way Put does: the
// sha256 of its bytes as 64 lowercase hex characters. Nothing else may
// reach blobPath, which joins the digest into a path under the store.
func validDigest(d string) bool {
	if len(d) != 2*sha256.Size {
		return false
	}
	for i := 0; i < len(d); i++ {
		if c := d[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// check refuses a head naming a blob by anything but a digest, or a
// tile by a size outside [0, maxTileSize].
func (c *Catalog) check() error {
	if !validDigest(c.Manifest) {
		return fmt.Errorf("manifest digest %q is not 64 lowercase hex", c.Manifest)
	}
	for path, ref := range c.Tiles {
		if !validDigest(ref.Digest) {
			return fmt.Errorf("tile %s: digest %q is not 64 lowercase hex", path, ref.Digest)
		}
		if ref.Size < 0 || ref.Size > maxTileSize {
			return fmt.Errorf("tile %s: size %d outside [0, %d]", path, ref.Size, maxTileSize)
		}
	}
	return nil
}

// catalogName is the catalog's filename under the store root.
const catalogName = "catalog.json"

// CatalogPath returns the catalog's on-disk path.
func (s *Store) CatalogPath() string { return s.catalogPath }

// WriteCatalog atomically replaces the catalog (tmp + rename, like a
// blob): a reading origin sees either the old or the new head, never a
// torn one.
func (s *Store) WriteCatalog(c *Catalog) error {
	data, err := json.Marshal(c)
	if err != nil {
		return fmt.Errorf("store: catalog: %w", err)
	}
	s.mu.Lock()
	s.seq++
	tmp := filepath.Join(s.tmpDir, fmt.Sprintf("cat-%d-%d", os.Getpid(), s.seq))
	s.mu.Unlock()
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("store: catalog: %w", err)
	}
	if err := os.Rename(tmp, s.CatalogPath()); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: catalog: %w", err)
	}
	s.count("pano_store_catalog_writes_total", "catalog head replacements")
	return nil
}

// ReadCatalog loads the current catalog head. ErrNotFound means no
// publication has happened yet. A head that is not JSON, or that names a
// blob by anything but a digest or a tile by an impossible size, is an
// error.
func (s *Store) ReadCatalog() (*Catalog, error) {
	data, err := os.ReadFile(s.CatalogPath())
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: catalog", ErrNotFound)
		}
		return nil, fmt.Errorf("store: catalog: %w", err)
	}
	var c Catalog
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("store: catalog: %w", err)
	}
	if err := c.check(); err != nil {
		return nil, fmt.Errorf("store: catalog: %w", err)
	}
	if c.Tiles == nil {
		c.Tiles = make(map[string]TileRef)
	}
	return &c, nil
}
