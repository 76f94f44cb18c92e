package store_test

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"pano/internal/codec"
	"pano/internal/manifest"
	"pano/internal/provider"
	"pano/internal/scene"
	"pano/internal/server"
	"pano/internal/store"
	"pano/internal/viewport"
)

// tinyManifest preprocesses a small synthetic video — the cheapest valid
// manifest the provider can make.
func tinyManifest(t testing.TB) *manifest.Video {
	t.Helper()
	opts := scene.Options{W: 240, H: 120, FPS: 10, DurationSec: 4}
	v := scene.Generate(scene.Sports, 42, opts)
	trs := []*viewport.Trace{viewport.Synthesize(v, 43, viewport.DefaultSynthesizeOpts())}
	m, err := provider.Preprocess(v, trs, provider.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// publishAll writes every tile of m plus the manifest blob into s and
// installs the catalog head — what internal/live does incrementally,
// done in one shot for tests.
func publishAll(t testing.TB, s *store.Store, m *manifest.Video) {
	t.Helper()
	tiles := make(map[string]store.TileRef)
	for k := range m.Chunks {
		for ti := range m.Chunks[k].Tiles {
			for l := 0; l < codec.NumLevels; l++ {
				lv := codec.Level(l)
				size := server.TileSizeBytes(&m.Chunks[k].Tiles[ti], lv)
				d, err := s.Put(server.TilePayload(k, ti, lv, size))
				if err != nil {
					t.Fatal(err)
				}
				tiles[server.TilePath(k, ti, lv)] = store.TileRef{Digest: d, Size: size}
			}
		}
	}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	md, err := s.Put(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCatalog(&store.Catalog{
		Seq: m.Seq + 1, Manifest: md, FirstChunk: m.FirstChunk, Tiles: tiles,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestOriginRefusesNonFiniteManifest: a manifest blob whose floats
// include a NaN decodes — the wire carries raw bits — and is refused
// where a store-backed origin validates its first snapshot.
func TestOriginRefusesNonFiniteManifest(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := tinyManifest(t)
	m.Chunks[0].Tiles[0].AvgLuma = math.NaN()
	publishAll(t, s, m)
	b, err := store.NewBackend(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.NewBackend(b); err == nil {
		t.Fatal("an origin came up over a manifest carrying a NaN")
	}
}

func TestBackendServesCatalog(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := tinyManifest(t)
	publishAll(t, s, m)

	b, err := store.NewBackend(s)
	if err != nil {
		t.Fatal(err)
	}
	got, body, etag, err := b.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if got.NumChunks() != m.NumChunks() {
		t.Fatalf("backend manifest has %d chunks, want %d", got.NumChunks(), m.NumChunks())
	}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, buf.Bytes()) {
		t.Fatal("backend manifest bytes differ from published encoding")
	}
	if len(etag) != 18 || etag[0] != '"' { // 16 hex chars + quotes
		t.Fatalf("manifest ETag %q not a quoted 16-char content hash", etag)
	}

	st, err := b.TileStat(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := server.TileETag(0, 0, 0, st.Size); st.ETag != want {
		t.Fatalf("tile ETag %q, want pure-function tag %q", st.ETag, want)
	}
	data, err := b.TileData(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := server.TilePayload(0, 0, 0, server.TileSizeBytes(&m.Chunks[0].Tiles[0], 0))
	if !bytes.Equal(data, want) {
		t.Fatal("tile payload differs from deterministic encoding")
	}
	// Never-published object → 404-style, not 410.
	if _, err := b.TileStat(m.NumChunks(), 0, 0); !errors.Is(err, server.ErrObjectNotFound) {
		t.Fatalf("past-edge tile = %v, want ErrObjectNotFound", err)
	}
}

// TestStatelessOriginPair is the stateless-origin proof at the package
// level: two independent Store+Backend instances over one directory
// answer byte-identically with identical ETags.
func TestStatelessOriginPair(t *testing.T) {
	dir := t.TempDir()
	s1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := tinyManifest(t)
	publishAll(t, s1, m)
	s2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := store.NewBackend(s1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := store.NewBackend(s2)
	if err != nil {
		t.Fatal(err)
	}

	_, body1, etag1, err := b1.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	_, body2, etag2, err := b2.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body1, body2) || etag1 != etag2 {
		t.Fatal("origins disagree on manifest bytes or ETag")
	}
	for k := 0; k < m.NumChunks(); k++ {
		for l := 0; l < codec.NumLevels; l++ {
			lv := codec.Level(l)
			d1, err := b1.TileData(k, 0, lv)
			if err != nil {
				t.Fatal(err)
			}
			d2, err := b2.TileData(k, 0, lv)
			if err != nil {
				t.Fatal(err)
			}
			st1, _ := b1.TileStat(k, 0, lv)
			st2, _ := b2.TileStat(k, 0, lv)
			if !bytes.Equal(d1, d2) || st1.ETag != st2.ETag {
				t.Fatalf("origins disagree on tile %d/0/%d", k, l)
			}
		}
	}
}

// TestBackendWindowGone: a catalog whose window has slid answers 410 for
// retired chunks and keeps 404 for never-published ones.
func TestBackendWindowGone(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := tinyManifest(t)
	m.Live = true
	m.FirstChunk = 1
	m.Seq = 3
	// Publish with chunk 0's tiles retired from the catalog.
	tiles := make(map[string]store.TileRef)
	for k := 1; k < m.NumChunks(); k++ {
		for ti := range m.Chunks[k].Tiles {
			for l := 0; l < codec.NumLevels; l++ {
				lv := codec.Level(l)
				size := server.TileSizeBytes(&m.Chunks[k].Tiles[ti], lv)
				d, err := s.Put(server.TilePayload(k, ti, lv, size))
				if err != nil {
					t.Fatal(err)
				}
				tiles[server.TilePath(k, ti, lv)] = store.TileRef{Digest: d, Size: size}
			}
		}
	}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	md, err := s.Put(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCatalog(&store.Catalog{Seq: 3, Manifest: md, FirstChunk: 1, Tiles: tiles}); err != nil {
		t.Fatal(err)
	}
	b, err := store.NewBackend(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.TileStat(0, 0, 0); !errors.Is(err, server.ErrObjectGone) {
		t.Fatalf("retired chunk = %v, want ErrObjectGone", err)
	}
	if _, err := b.TileStat(1, 0, 0); err != nil {
		t.Fatalf("in-window chunk = %v, want nil", err)
	}
	if _, err := b.TileStat(m.NumChunks()+5, 0, 0); !errors.Is(err, server.ErrObjectNotFound) {
		t.Fatalf("unpublished chunk = %v, want ErrObjectNotFound", err)
	}
}

// TestBackendAdoptsNewerCatalog: a reader sees a publisher's new head on
// the next request (stat-poll) and never steps backwards.
func TestBackendAdoptsNewerCatalog(t *testing.T) {
	dir := t.TempDir()
	pub, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := tinyManifest(t)
	m.Live = true
	full := m.Chunks
	m.Chunks = full[:1]
	m.Seq = 1
	publishAll(t, pub, m)

	rd, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := store.NewBackend(rd)
	if err != nil {
		t.Fatal(err)
	}
	got, _, _, err := b.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if got.NumChunks() != 1 {
		t.Fatalf("initial head has %d chunks, want 1", got.NumChunks())
	}

	// Publisher appends a chunk and bumps the head.
	m.Chunks = full[:2]
	m.Seq = 2
	publishAll(t, pub, m)
	got, _, etag2, err := b.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if got.NumChunks() != 2 {
		t.Fatalf("refreshed head has %d chunks, want 2", got.NumChunks())
	}
	// A tile of the new chunk resolves without reopening anything.
	if _, err := b.TileData(1, 0, 0); err != nil {
		t.Fatalf("new chunk tile after refresh: %v", err)
	}
	if len(etag2) != 18 {
		t.Fatalf("rotated ETag %q malformed", etag2)
	}
}
