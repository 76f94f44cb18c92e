package server

import (
	"encoding/xml"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"pano/internal/codec"
	"pano/internal/manifest"
	"pano/internal/provider"
	"pano/internal/scene"
)

var (
	manOnce sync.Once
	man     *manifest.Video
)

func testManifest(t *testing.T) *manifest.Video {
	t.Helper()
	manOnce.Do(func() {
		v := scene.Generate(scene.Documentary, 31, scene.Options{W: 240, H: 120, FPS: 10, DurationSec: 2})
		m, err := provider.Preprocess(v, nil, provider.DefaultConfig())
		if err != nil {
			panic(err)
		}
		man = m
	})
	return man
}

func TestNewRejectsInvalidManifest(t *testing.T) {
	if _, err := New(&manifest.Video{}); err == nil {
		t.Error("invalid manifest should be rejected")
	}
}

func TestManifestEndpoint(t *testing.T) {
	s, err := New(testManifest(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("Content-Type %q, want application/octet-stream", ct)
	}
	m, err := manifest.Decode(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumChunks() != testManifest(t).NumChunks() {
		t.Error("manifest round trip lost chunks")
	}
}

func TestMPDEndpoint(t *testing.T) {
	s, _ := New(testManifest(t))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/manifest.mpd")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/dash+xml" {
		t.Errorf("content type %q", ct)
	}
	var mpd manifest.MPD
	if err := xml.NewDecoder(resp.Body).Decode(&mpd); err != nil {
		t.Fatal(err)
	}
	if len(mpd.Periods) != testManifest(t).NumChunks() {
		t.Errorf("periods = %d, want %d", len(mpd.Periods), testManifest(t).NumChunks())
	}
}

func TestManifestMethodNotAllowed(t *testing.T) {
	s, _ := New(testManifest(t))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/manifest.json", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("status %d, want 405", resp.StatusCode)
	}
}

func TestTileEndpoint(t *testing.T) {
	m := testManifest(t)
	s, _ := New(m)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + TilePath(0, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	want := TileSizeBytes(&m.Chunks[0].Tiles[0], 2)
	buf := make([]byte, want+100)
	n := 0
	for {
		r, err := resp.Body.Read(buf[n:])
		n += r
		if err != nil {
			break
		}
	}
	if n != want && n != 16 {
		t.Errorf("body size %d, want %d", n, want)
	}
}

func TestTileEndpointErrors(t *testing.T) {
	s, _ := New(testManifest(t))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, c := range []struct {
		path string
		want int
	}{
		{"/video/0/0/9.bin", http.StatusNotFound},   // bad level
		{"/video/99/0/2.bin", http.StatusNotFound},  // bad chunk
		{"/video/0/999/2.bin", http.StatusNotFound}, // bad tile
		{"/video/0/0/x.bin", http.StatusBadRequest}, // malformed
		{"/video/0/0", http.StatusBadRequest},       // malformed
	} {
		resp, err := http.Get(ts.URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.path, resp.StatusCode, c.want)
		}
	}
}

func TestParseTilePathRoundTrip(t *testing.T) {
	p := TilePath(12, 7, codec.Level(3))
	k, ti, l, err := ParseTilePath(p)
	if err != nil {
		t.Fatal(err)
	}
	if k != 12 || ti != 7 || l != 3 {
		t.Errorf("round trip got (%d,%d,%d)", k, ti, int(l))
	}
}

func TestTilePayloadDeterministicAndTagged(t *testing.T) {
	a := TilePayload(3, 5, 2, 100)
	b := TilePayload(3, 5, 2, 100)
	if string(a) != string(b) {
		t.Error("payload should be deterministic")
	}
	c := TilePayload(3, 6, 2, 100)
	if string(a) == string(c) {
		t.Error("different tiles should differ")
	}
	if len(TilePayload(0, 0, 0, 4)) != 16 {
		t.Error("payload should have a 16-byte floor")
	}
}
