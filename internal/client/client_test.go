package client

import (
	"context"
	"errors"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pano/internal/codec"
	"pano/internal/frame"
	"pano/internal/graceful"
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

// TestFetchManifestRejectsNonFinite: the decode and Validate after it
// are the client's one gate. The wire has no code for a NaN or an
// infinity — the encoder writes each as a code past its step's range,
// which the decoder refuses — so a server's NaN or infinite LUT
// exponent never reaches a plan. JSON — what the path's name still
// says — is not a manifest at all.
func TestFetchManifestRejectsNonFinite(t *testing.T) {
	poison := func(b float64) []byte {
		m, err := manifest.Unmarshal(fixture(t).man.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		m.Chunks[1].Tiles[0].LUT[2].BExp = b
		return m.Marshal()
	}
	for name, body := range map[string][]byte{
		"NaN": poison(math.NaN()), "Inf": poison(math.Inf(1)), "JSON": []byte(`{"name":"x"}`),
	} {
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
	// A body that is not the tile asked for — short, or another chunk's
	// or tile's — fails server's header check and is a truncation.
	bodies := map[string][]byte{
		server.TilePath(0, 1, 2): server.TilePayload(0, 1, 2, 64)[:15],
		server.TilePath(1, 1, 2): server.TilePayload(0, 1, 2, 64),
		server.TilePath(0, 2, 2): server.TilePayload(0, 1, 2, 64),
	}
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(bodies[r.URL.Path])
	}))
	defer bad.Close()
	for _, at := range [][2]int{{0, 1}, {1, 1}, {0, 2}} {
		_, err := New(bad.URL).FetchTile(context.Background(), at[0], at[1], 2)
		if !errors.Is(err, server.ErrTileHeader) || ErrorClass(err) != "truncated" {
			t.Errorf("tile %d/%d: %v (class %q), want server.ErrTileHeader, truncated", at[0], at[1], err, ErrorClass(err))
		}
	}
}

// h2cServer serves h over HTTP/1.1 and h2c, as graceful.ServeListener
// does; conns, when non-nil, counts the connections it accepts.
func h2cServer(t testing.TB, h http.Handler, conns *atomic.Int64) *httptest.Server {
	t.Helper()
	ts := httptest.NewUnstartedServer(h)
	ts.Config.Protocols = graceful.Protocols()
	if conns != nil {
		ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				conns.Add(1)
			}
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	return ts
}

// Every base URL form a request URL can be built on streams, over
// HTTP/1.1 and h2c alike: a percent-escaped path prefix reaches the
// server on every request, the turns' GETs included, and so does
// userinfo, as basic auth.
func TestStreamUnderAnEscapedBasePath(t *testing.T) {
	s, err := server.New(fixture(t).man)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var uris []string
	var authed int
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		uris = append(uris, r.RequestURI)
		if u, p, ok := r.BasicAuth(); ok && u == "u" && p == "p" {
			authed++
		}
		mu.Unlock()
		rest, ok := strings.CutPrefix(r.URL.EscapedPath(), "/a%20b")
		if !ok {
			http.NotFound(w, r)
			return
		}
		r.URL.Path, r.URL.RawPath = rest, ""
		s.Handler().ServeHTTP(w, r)
	})
	ts := h2cServer(t, h, nil)
	host := strings.TrimPrefix(ts.URL, "http://")
	for _, c := range []*Client{
		New(ts.URL + "/a%20b"), New("http://u:p@" + host + "/a%20b"),
		NewH2C(ts.URL + "/a%20b"), NewH2C("http://u:p@" + host + "/a%20b"),
	} {
		mu.Lock()
		uris, authed = uris[:0], 0
		mu.Unlock()
		res, err := c.Stream(context.Background(), fixture(t).tr, StreamConfig{Fetch: fastFetchPolicy(), MaxChunks: 2})
		if err != nil {
			t.Fatalf("%s: %v", c.BaseURL, err)
		}
		if res.TotalRetries != 0 || len(res.Chunks) != 2 {
			t.Errorf("%s: %d chunks, %d retries; want 2 and 0", c.BaseURL, len(res.Chunks), res.TotalRetries)
		}
		want := 1 // the manifest
		for _, cr := range res.Chunks {
			want += len(cr.Planned)
		}
		mu.Lock()
		if len(uris) != want {
			t.Errorf("%s: server saw %d requests, want %d", c.BaseURL, len(uris), want)
		}
		if wantAuth := strings.Contains(c.BaseURL, "@"); wantAuth && authed != want || !wantAuth && authed != 0 {
			t.Errorf("%s: %d of %d requests carried the userinfo", c.BaseURL, authed, want)
		}
		for _, u := range uris {
			if !strings.HasPrefix(u, "/a%20b/") {
				t.Errorf("%s: request carries %q, want the escaped prefix", c.BaseURL, u)
			}
		}
		mu.Unlock()
		c.HTTP.CloseIdleConnections()
	}
}

// Over h2c a session opens exactly one connection, and a chunk's planned
// requests are all in flight before any of them is answered: each of
// chunk 0's tile handlers holds its answer until all of them have
// arrived.
func TestStreamRidesOneH2CConnection(t *testing.T) {
	f := fixture(t)
	s, err := server.New(f.man)
	if err != nil {
		t.Fatal(err)
	}
	n := len(f.man.Chunks[0].Tiles)
	var arrived, conns atomic.Int64
	var h1, early atomic.Bool
	all := make(chan struct{})
	ts := h2cServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.ProtoMajor != 2 {
			h1.Store(true)
		}
		if strings.HasPrefix(r.URL.Path, "/video/0/") {
			if arrived.Add(1) == int64(n) {
				close(all)
			}
			select {
			case <-all:
			case <-time.After(2 * time.Second):
				early.Store(true) // answered before the rest arrived
			}
		}
		s.Handler().ServeHTTP(w, r)
	}), &conns)
	c := NewH2C(ts.URL)
	defer c.HTTP.CloseIdleConnections()
	res, err := c.Stream(context.Background(), f.tr, StreamConfig{Fetch: fastFetchPolicy(), MaxChunks: 3})
	if err != nil {
		t.Fatal(err)
	}
	if early.Load() {
		t.Errorf("chunk 0's first answer went out before all %d planned requests were in flight", n)
	}
	if res.TotalRetries != 0 || len(res.Chunks) != 3 {
		t.Errorf("%d chunks, %d retries; want 3 and 0", len(res.Chunks), res.TotalRetries)
	}
	if h1.Load() {
		t.Error("a request arrived over HTTP/1")
	}
	if got := conns.Load(); got != 1 {
		t.Errorf("the session opened %d connections, want 1", got)
	}
}

// client.New keeps its HTTP/1.1 transport: a session streams whole from
// a server that speaks nothing else, and its idle pool holds a turn's
// connections, so the first turn dials them and the later turns reuse
// them.
func TestNewStreamsFromAnHTTP1OnlyServer(t *testing.T) {
	f := fixture(t)
	s, err := server.New(f.man)
	if err != nil {
		t.Fatal(err)
	}
	var h2 atomic.Bool
	var conns atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.ProtoMajor != 1 {
			h2.Store(true)
		}
		s.Handler().ServeHTTP(w, r)
	}))
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	c := New(ts.URL)
	defer c.HTTP.CloseIdleConnections()
	res, err := c.Stream(context.Background(), f.tr, StreamConfig{Fetch: fastFetchPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chunks) != f.man.NumChunks() || res.TotalRetries != 0 {
		t.Errorf("%d of %d chunks, %d retries; want all and 0", len(res.Chunks), f.man.NumChunks(), res.TotalRetries)
	}
	if h2.Load() {
		t.Error("a request arrived over HTTP/2")
	}
	if n := len(f.man.Chunks[0].Tiles); conns.Load() > int64(n)+1 {
		t.Errorf("%d chunks of %d tiles opened %d connections, want at most %d", len(res.Chunks), n, conns.Load(), n+1)
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
