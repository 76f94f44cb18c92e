package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// head is a catalog head with a valid manifest digest and one tile.
func head(tileDigest, tileSize string) string {
	return `{"seq":1,"manifest":"` + strings.Repeat("ab", 32) + `","firstChunk":0,` +
		`"tiles":{"/video/0/0/0.bin":{"digest":` + tileDigest + `,"size":` + tileSize + `}}}`
}

func writeHead(t *testing.T, s *Store, data string) {
	t.Helper()
	if err := os.WriteFile(s.CatalogPath(), []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCatalogRefusesDigestOutsideTheStore: a digest joins into the blob
// path, so a head naming "../../secret.txt" used to read a file beside
// the store directory. No head naming a blob by anything but what Put
// writes, the sha256 as 64 lowercase hex characters, is read.
func TestCatalogRefusesDigestOutsideTheStore(t *testing.T) {
	root := t.TempDir()
	s, err := Open(filepath.Join(root, "st"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "secret.txt"), []byte("secret"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string]string{
		"tile":      head(`"../../secret.txt"`, "6"),
		"manifest":  strings.Replace(head(`"`+strings.Repeat("cd", 32)+`"`, "6"), strings.Repeat("ab", 32), "../../secret.txt", 1),
		"uppercase": head(`"`+strings.Repeat("AB", 32)+`"`, "6"),
		"short":     head(`"abc"`, "6"),
		"empty":     head(`""`, "6"),
	} {
		writeHead(t, s, data)
		c, err := s.ReadCatalog()
		if err == nil {
			t.Errorf("%s: read a head naming a blob by a non-digest: %+v", name, c)
			if data, err := s.getSized(c.Tiles["/video/0/0/0.bin"].Digest, 6); err == nil {
				t.Errorf("%s: the tile read %q from outside the store", name, data)
			}
		}
	}
}

// TestCatalogRefusesImpossibleSize: a tile read allocates the catalog's
// size before it reads, so a size of 1<<62 used to panic it (makeslice:
// len out of range). A negative size or one over maxTileSize is refused
// with the head; the bound itself is read.
func TestCatalogRefusesImpossibleSize(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	digest := `"` + strings.Repeat("0f", 32) + `"`
	for _, size := range []string{"4611686018427387904", "-1", "67108865"} {
		writeHead(t, s, head(digest, size))
		if c, err := s.ReadCatalog(); err == nil {
			t.Errorf("size %s: read the head %+v", size, c)
		}
	}
	writeHead(t, s, head(digest, "67108864"))
	if _, err := s.ReadCatalog(); err != nil {
		t.Errorf("size maxTileSize: %v", err)
	}
}

// FuzzReadCatalog: whatever bytes the head holds, ReadCatalog does not
// panic; every head it accepts names its manifest and tiles by valid
// digests and its tiles by sizes in [0, maxTileSize]; and a Backend's
// reads over an accepted head open no path outside the store root.
func FuzzReadCatalog(f *testing.F) {
	root := f.TempDir()
	s, err := Open(root)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(head(`"`+strings.Repeat("0f", 32)+`"`, "100")))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(s.CatalogPath(), data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := s.ReadCatalog()
		if err != nil {
			return
		}
		inside := func(digest string) {
			rel, err := filepath.Rel(root, s.lookupPath(digest))
			if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
				t.Fatalf("digest %q reads %s, outside the store", digest, s.lookupPath(digest))
			}
		}
		if !validDigest(c.Manifest) {
			t.Fatalf("accepted manifest digest %q", c.Manifest)
		}
		inside(c.Manifest)
		for path, ref := range c.Tiles {
			if !validDigest(ref.Digest) || ref.Size < 0 || ref.Size > maxTileSize {
				t.Fatalf("accepted tile %s: %+v", path, ref)
			}
			inside(ref.Digest)
			// What Backend.Tile's read does: the store holds no blobs, so
			// every read misses.
			if _, err := s.getSized(ref.Digest, max(ref.Size, 16)); !errors.Is(err, ErrNotFound) {
				t.Fatalf("tile %s: read %v, want not found", path, err)
			}
		}
	})
}
