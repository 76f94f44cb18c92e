package store

import (
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
// publication has happened yet.
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
	if c.Tiles == nil {
		c.Tiles = make(map[string]TileRef)
	}
	return &c, nil
}
