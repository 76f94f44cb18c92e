package client

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"pano/internal/codec"
	"pano/internal/frame"
	"pano/internal/manifest"
	"pano/internal/player"
	"pano/internal/provider"
	"pano/internal/scene"
	"pano/internal/server"
	"pano/internal/viewport"
)

type fixtureT struct {
	man *manifest.Video
	tr  *viewport.Trace
}

var (
	fxOnce sync.Once
	fx     fixtureT
)

func fixture(t testing.TB) *fixtureT {
	t.Helper()
	fxOnce.Do(func() {
		v := scene.Generate(scene.Tourism, 41, scene.Options{W: 240, H: 120, FPS: 10, DurationSec: 3})
		tr := viewport.Synthesize(v, 2, viewport.DefaultSynthesizeOpts())
		m, err := provider.Preprocess(v, []*viewport.Trace{tr}, provider.DefaultConfig())
		if err != nil {
			panic(err)
		}
		fx = fixtureT{man: m, tr: tr}
	})
	return &fx
}

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	s, err := server.New(fixture(t).man)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func TestFetchManifest(t *testing.T) {
	ts := testServer(t)
	c := New(ts.URL)
	m, err := c.FetchManifest(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.NumChunks() != fixture(t).man.NumChunks() {
		t.Error("manifest mismatch")
	}
}

func TestFetchManifestBadServer(t *testing.T) {
	c := New("http://127.0.0.1:1") // nothing listens
	if _, err := c.FetchManifest(context.Background()); err == nil {
		t.Error("unreachable server should error")
	}
}

// TestFetchManifestRejectsNonFinite: the wire carries raw float bits, so
// a NaN can arrive; Validate after the decode is the client's one gate.
// JSON — what the path's name still says — is not a manifest at all.
func TestFetchManifestRejectsNonFinite(t *testing.T) {
	poisoned, err := manifest.Unmarshal(fixture(t).man.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	poisoned.Chunks[1].Tiles[0].LUT[2].BExp = math.NaN()
	for name, body := range map[string][]byte{"NaN": poisoned.Marshal(), "JSON": []byte(`{"name":"x"}`)} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write(body)
		}))
		if m, err := New(ts.URL).FetchManifest(context.Background()); err == nil {
			t.Errorf("%s manifest adopted: %d chunks", name, m.NumChunks())
		}
		ts.Close()
	}
}

func TestFetchTileVerifiesHeader(t *testing.T) {
	ts := testServer(t)
	c := New(ts.URL)
	data, err := c.FetchTile(context.Background(), 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := server.TileSizeBytes(&fixture(t).man.Chunks[0].Tiles[1], 2)
	if len(data) != want && len(data) != 16 {
		t.Errorf("tile size %d, want %d", len(data), want)
	}
	if _, err := c.FetchTile(context.Background(), 0, 9999, 2); err == nil {
		t.Error("missing tile should error")
	}
}

// A base URL with a percent-escaped path reaches the server as the
// Client's own GETs do, pipelined or not: every request line carries the
// escaped prefix. One whose userinfo, query or fragment a request line
// cannot carry is not pipelined.
func TestStreamUnderAnEscapedBasePath(t *testing.T) {
	s, err := server.New(fixture(t).man)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var uris []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		uris = append(uris, r.RequestURI)
		mu.Unlock()
		rest, ok := strings.CutPrefix(r.URL.EscapedPath(), "/a%20b")
		if !ok {
			http.NotFound(w, r)
			return
		}
		r.URL.Path, r.URL.RawPath = rest, ""
		s.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	c := New(ts.URL + "/a%20b")
	if c.pipeline() == nil {
		t.Fatal("a plain http base URL is not pipelined")
	}
	res, err := c.Stream(context.Background(), fixture(t).tr, StreamConfig{Fetch: fastFetchPolicy(), MaxChunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalRetries != 0 || len(res.Chunks) != 2 {
		t.Errorf("%d chunks, %d retries; want 2 and 0", len(res.Chunks), res.TotalRetries)
	}
	want := 1 // the manifest
	for _, cr := range res.Chunks {
		want += len(cr.Planned)
	}
	if len(uris) != want {
		t.Errorf("server saw %d requests, want %d", len(uris), want)
	}
	for _, u := range uris {
		if !strings.HasPrefix(u, "/a%20b/") {
			t.Errorf("request line carries %q, want the escaped prefix", u)
		}
	}
	for _, base := range []string{"http://u:p@127.0.0.1/", "http://127.0.0.1/?x=1", "http://127.0.0.1/#f"} {
		if New(base).pipeline() != nil {
			t.Errorf("%s pipelined", base)
		}
	}
}

func TestStreamEndToEnd(t *testing.T) {
	ts := testServer(t)
	c := New(ts.URL)
	f := fixture(t)
	res, err := c.Stream(context.Background(), f.tr, StreamConfig{Planner: player.NewPanoPlanner()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chunks) != f.man.NumChunks() {
		t.Fatalf("streamed %d chunks, want %d", len(res.Chunks), f.man.NumChunks())
	}
	if res.TotalBytes <= 0 {
		t.Error("no bytes streamed")
	}
	if res.StartupDelay <= 0 {
		t.Error("no startup delay recorded")
	}
	for _, ch := range res.Chunks {
		if len(ch.Levels) != len(f.man.Chunks[ch.Chunk].Tiles) {
			t.Fatalf("chunk %d: %d levels", ch.Chunk, len(ch.Levels))
		}
		if ch.Throughput <= 0 {
			t.Errorf("chunk %d: throughput %v", ch.Chunk, ch.Throughput)
		}
	}
}

func TestStreamMaxChunks(t *testing.T) {
	ts := testServer(t)
	c := New(ts.URL)
	res, err := c.Stream(context.Background(), fixture(t).tr, StreamConfig{MaxChunks: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chunks) != 1 {
		t.Errorf("chunks = %d, want 1", len(res.Chunks))
	}
}

func TestStreamRateCapConstrainsQuality(t *testing.T) {
	ts := testServer(t)
	f := fixture(t)
	// Uncapped loopback saturates at the top level; a tight cap must
	// push the controller to cheaper levels.
	capped, err := New(ts.URL).Stream(context.Background(), f.tr, StreamConfig{
		MaxRateBps: 0.15 * topRate(f.man),
	})
	if err != nil {
		t.Fatal(err)
	}
	free, err := New(ts.URL).Stream(context.Background(), f.tr, StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if capped.TotalBytes >= free.TotalBytes {
		t.Errorf("capped session bytes %d should be below uncapped %d",
			capped.TotalBytes, free.TotalBytes)
	}
}

func topRate(m *manifest.Video) float64 {
	var bits float64
	for k := 0; k < m.NumChunks(); k++ {
		bits += m.ChunkBits(k, 0)
	}
	return bits / m.DurationSec()
}

func TestStreamCancellation(t *testing.T) {
	ts := testServer(t)
	c := New(ts.URL)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Stream(ctx, fixture(t).tr, StreamConfig{}); err == nil {
		t.Error("cancelled context should error")
	}
}

func TestStitch(t *testing.T) {
	f := fixture(t)
	m := f.man
	dst := frame.New(m.W, m.H)
	tiles := map[int]*frame.Frame{}
	for ti, tl := range m.Chunks[0].Tiles {
		tf := frame.New(tl.Rect.W(), tl.Rect.H())
		tf.Fill(uint8(40 + 5*ti))
		tiles[ti] = tf
	}
	if err := Stitch(m, 0, tiles, dst); err != nil {
		t.Fatal(err)
	}
	// Every tile's region carries its fill value.
	for ti, tl := range m.Chunks[0].Tiles {
		if got := dst.At(tl.Rect.X0, tl.Rect.Y0); got != uint8(40+5*ti) {
			t.Fatalf("tile %d region has %d", ti, got)
		}
	}
}

func TestStitchErrors(t *testing.T) {
	f := fixture(t)
	m := f.man
	dst := frame.New(m.W, m.H)
	if err := Stitch(m, 99, nil, dst); err == nil {
		t.Error("bad chunk should error")
	}
	if err := Stitch(m, 0, map[int]*frame.Frame{999: frame.New(2, 2)}, dst); err == nil {
		t.Error("bad tile index should error")
	}
	if err := Stitch(m, 0, map[int]*frame.Frame{0: frame.New(1, 1)}, dst); err == nil {
		t.Error("mis-sized tile should error")
	}
	if err := Stitch(m, 0, nil, frame.New(3, 3)); err == nil {
		t.Error("mis-sized target should error")
	}
}

func TestLevelsWithinRange(t *testing.T) {
	ts := testServer(t)
	c := New(ts.URL)
	res, err := c.Stream(context.Background(), fixture(t).tr, StreamConfig{BufferTargetSec: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range res.Chunks {
		for _, l := range ch.Levels {
			if !l.Valid() {
				t.Fatalf("invalid level %v", l)
			}
		}
	}
	_ = codec.NumLevels
}
