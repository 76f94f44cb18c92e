package store_test

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"pano/internal/codec"
	"pano/internal/server"
	"pano/internal/store"
)

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// storeOrigin publishes the tiny manifest into a fresh store and opens
// a store-backed origin over it, the way a stateless origin process
// does: its own Store handle, a Backend, server.NewBackend.
func storeOrigin(tb testing.TB, opts ...server.Option) (dir string, b *store.Backend, h http.Handler, paths []string) {
	tb.Helper()
	dir = tb.TempDir()
	pub, err := store.Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	m := tinyManifest(tb)
	publishAll(tb, pub, m)
	s, err := store.Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	if b, err = store.NewBackend(s); err != nil {
		tb.Fatal(err)
	}
	srv, err := server.NewBackend(b, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	for k := range m.Chunks {
		for ti := range m.Chunks[k].Tiles {
			for l := 0; l < codec.NumLevels; l++ {
				paths = append(paths, server.TilePath(k, ti, codec.Level(l)))
			}
		}
	}
	return dir, b, srv.Handler(), paths
}

// TestCollectedBlobIsGone: GC may remove a blob a reading origin's
// catalog still names (its retention horizon was shorter than the
// origin's refresh lag). The tile still resolves — the catalog is all a
// stat consults — and the read says ErrObjectGone, which the handler
// turns into a 410 (internal/testbed's TestCollectedBlobIs410NotATorn200
// reads it off the wire).
func TestCollectedBlobIsGone(t *testing.T) {
	dir, b, _, _ := storeOrigin(t)
	cat, err := readCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	const path = "/video/0/0/0.bin"
	digest := cat.Tiles[path].Digest
	if err := os.Remove(filepath.Join(dir, "blobs", digest[:2], digest[2:])); err != nil {
		t.Fatal(err)
	}

	st, read, err := b.Tile(0, 0, 0)
	if err != nil || st.Size != cat.Tiles[path].Size {
		t.Fatalf("Tile of a collected blob = %+v, %v; the stat needs only the catalog", st, err)
	}
	if _, err := read(); !errors.Is(err, server.ErrObjectGone) {
		t.Fatalf("read of a collected blob = %v, want ErrObjectGone", err)
	}
	if _, err := b.TileData(0, 0, 0); !errors.Is(err, server.ErrObjectGone) {
		t.Fatalf("TileData of a collected blob = %v, want ErrObjectGone", err)
	}
	// Its neighbours are untouched.
	if data, err := b.TileData(0, 0, 1); err != nil || len(data) < 16 {
		t.Fatalf("TileData of an intact blob = %d bytes, %v", len(data), err)
	}
}

func readCatalog(dir string) (*store.Catalog, error) {
	s, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	return s.ReadCatalog()
}

// serveTile runs one tile GET through h into a recorder.
func serveTile(tb testing.TB, h http.Handler, path string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		tb.Fatalf("%s: %d", path, rec.Code)
	}
}

// TestOriginTileGETAllocations pins the store-backed origin's tile GET
// (into a recorder, request and recorder included, as the benchmark's
// server.handler_allocs counts it): 48 allocations before a request
// resolved its tile once and read it sized.
func TestOriginTileGETAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	_, _, h, paths := storeOrigin(t)
	i := 0
	n := testing.AllocsPerRun(300, func() {
		serveTile(t, h, paths[i%len(paths)])
		i++
	})
	if n > 32 {
		t.Errorf("origin tile GET: %v allocs/op, want <= 32", n)
	}
	t.Logf("origin tile GET: %v allocs/op", n)
}

// BenchmarkOriginTileGET is one tile GET at a store-backed origin, into
// a recorder: path parse, catalog poll and lookup, ETag, sized blob
// read, headers, body write.
func BenchmarkOriginTileGET(b *testing.B) {
	_, _, h, paths := storeOrigin(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveTile(b, h, paths[i%len(paths)])
	}
}
