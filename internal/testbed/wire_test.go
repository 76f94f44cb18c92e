package testbed

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"pano/internal/codec"
	"pano/internal/edge"
	"pano/internal/geom"
	"pano/internal/manifest"
	"pano/internal/obs"
	"pano/internal/server"
	"pano/internal/store"
)

// wireManifest is written by hand, not preprocessed, so the fixtures
// below move only when the request path does: three chunks of two
// tiles, chunk 0 retired from the availability window (its tiles answer
// 410), and tile 1's lowest level nominally 5 bytes — below the 16-byte
// header every payload carries.
func wireManifest() *manifest.Video {
	tile := func(x0 int, bits [codec.NumLevels]float64) manifest.Tile {
		return manifest.Tile{
			Rect: geom.Rect{X0: x0, Y0: 0, X1: x0 + 8, Y1: 8}, AvgLuma: 100, AvgDoF: 1, Bits: bits,
			PSNR:     [codec.NumLevels]float64{44, 40, 36, 32, 28},
			RefPSPNR: [codec.NumLevels]float64{60, 55, 50, 45, 40},
		}
	}
	m := &manifest.Video{Name: "wire", Genre: "sports", W: 16, H: 8, FPS: 10, ChunkSec: 1, FirstChunk: 1, Seq: 4}
	for k := 0; k < 3; k++ {
		m.Chunks = append(m.Chunks, manifest.Chunk{Index: k, Tiles: []manifest.Tile{
			tile(0, [codec.NumLevels]float64{8000, 4000, 2000, 800, 400}),
			tile(8, [codec.NumLevels]float64{3000, 1000, 500, 200, 40}),
		}})
	}
	return m
}

// publishWire writes m into a fresh store directory the way the live
// publisher does — tile blobs, manifest blob, catalog head — and
// returns the directory and the catalog.
func publishWire(t *testing.T, m *manifest.Video) (string, *store.Catalog) {
	t.Helper()
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cat := &store.Catalog{Seq: m.Seq, FirstChunk: m.FirstChunk, Tiles: map[string]store.TileRef{}}
	for k := m.FirstChunk; k < m.NumChunks(); k++ {
		for ti := range m.Chunks[k].Tiles {
			for l := 0; l < codec.NumLevels; l++ {
				lv := codec.Level(l)
				size := server.TileSizeBytes(&m.Chunks[k].Tiles[ti], lv)
				d, err := s.Put(server.TilePayload(k, ti, lv, size))
				if err != nil {
					t.Fatal(err)
				}
				cat.Tiles[server.TilePath(k, ti, lv)] = store.TileRef{Digest: d, Size: size}
			}
		}
	}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if cat.Manifest, err = s.Put(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCatalog(cat); err != nil {
		t.Fatal(err)
	}
	return dir, cat
}

// wireStack is a store-backed origin behind a caching edge in fleet
// mode. The fleet has the one origin: ring placement hashes origin
// URLs, whose ports differ from run to run, and the series a run leaves
// behind must not.
type wireStack struct {
	tb                 *Testbed
	origin, edge       string
	originReg, edgeReg *obs.Registry
}

func newWireStack(t *testing.T, dir string) *wireStack {
	t.Helper()
	ws := &wireStack{tb: New(), originReg: obs.NewRegistry(), edgeReg: obs.NewRegistry()}
	t.Cleanup(ws.tb.Close)
	o, err := ws.tb.AddOrigin(OriginConfig{StoreDir: dir, Obs: ws.originReg})
	if err != nil {
		t.Fatal(err)
	}
	ws.origin = o.URL
	e, err := edge.New(edge.Config{Origins: []string{o.URL}, CacheBytes: 1 << 20, Fetch: LoopbackPolicy(), Obs: ws.edgeReg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(e.Handler())
	t.Cleanup(func() { ts.Close(); e.Close() })
	ws.edge = ts.URL
	return ws
}

// wireStep is one request of the fixed script.
type wireStep struct {
	method, path, inm string
}

// wireScript is the request sequence both fixtures were captured with.
// Order matters at the edge (the second GET of a path is a hit).
func wireScript() []wireStep {
	etag := server.TileETag(1, 0, 0, 1000)
	return []wireStep{
		{"GET", "/manifest.json", ""},
		{"HEAD", "/manifest.json", ""},
		{"GET", "/manifest.mpd", ""},
		{"GET", "/video/1/0/0.bin", ""},
		{"GET", "/video/1/0/0.bin", ""},
		{"HEAD", "/video/1/0/1.bin", ""},
		{"GET", "/video/1/0/0.bin", etag},
		{"GET", "/video/1/0/0.bin", `"nope" , W/` + etag},
		{"GET", "/video/1/0/0.bin", `"nope", W/"other"`},
		{"GET", "/video/2/1/3.bin", "*"},
		{"GET", "/video/1/1/4.bin", ""}, // nominal 5 bytes, 16 on the wire
		{"GET", "/video/9/0/0.bin", ""}, // not published: 404
		{"GET", "/video/0/0/0.bin", ""}, // retired: 410
		{"GET", "/video/0/0/0.bin", ""},
		{"GET", "/video/1/0/9.bin", ""},   // no such level: 404
		{"GET", "/video/1/0/-1.bin", ""},  // negative: 404
		{"GET", "/video/x/0/0.bin", ""},   // 400
		{"GET", "/video/1/0/0", ""},       // 400
		{"GET", "/video/1/0/0/0.bin", ""}, // 400
		{"POST", "/video/1/0/0.bin", ""},  // 405
		{"DELETE", "/manifest.json", ""},  // 405
	}
}

// exchange sends one request on its own connection and renders what
// came back: status line and headers exactly as written, minus the
// wall-clock ones, then the body (de-chunked; long bodies as a digest).
func exchange(t *testing.T, base string, st wireStep) string {
	t.Helper()
	u, err := url.Parse(base)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialTimeout("tcp", u.Host, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	req := st.method + " " + st.path + " HTTP/1.1\r\nHost: wire\r\nConnection: close\r\n"
	if st.inm != "" {
		req += "If-None-Match: " + st.inm + "\r\n"
	}
	if _, err := io.WriteString(conn, req+"\r\n"); err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	head, body, ok := bytes.Cut(raw, []byte("\r\n\r\n"))
	if !ok {
		t.Fatalf("%s %s: no header terminator in %q", st.method, st.path, raw)
	}
	var out strings.Builder
	chunked := false
	for _, line := range strings.Split(string(head), "\r\n") {
		name, val, _ := strings.Cut(line, ": ")
		switch name {
		case "Date", "Last-Modified":
			continue
		case "Age":
			// Whole seconds since the fill: 0 unless the run stalls.
			if n, err := strconv.Atoi(val); err != nil || n < 0 || n > 5 {
				t.Errorf("%s %s: Age %q", st.method, st.path, val)
			}
			continue
		case "Transfer-Encoding":
			chunked = val == "chunked"
		}
		out.WriteString(line + "\n")
	}
	if chunked {
		if body, err = io.ReadAll(httputil.NewChunkedReader(bytes.NewReader(body))); err != nil {
			t.Fatal(err)
		}
	}
	switch {
	case len(body) == 0:
		out.WriteString("body: none\n")
	case len(body) <= 64:
		fmt.Fprintf(&out, "body: %q\n", body)
	default:
		fmt.Fprintf(&out, "body: %d bytes, sha256 %x\n", len(body), sha256.Sum256(body))
	}
	return out.String()
}

// runScript plays the script against the origin and then against the
// edge, returning the rendered exchanges.
func (ws *wireStack) runScript(t *testing.T) string {
	t.Helper()
	var out strings.Builder
	for _, hop := range []struct{ name, url string }{{"origin", ws.origin}, {"edge", ws.edge}} {
		for _, st := range wireScript() {
			fmt.Fprintf(&out, "### %s: %s %s", hop.name, st.method, st.path)
			if st.inm != "" {
				fmt.Fprintf(&out, " If-None-Match: %s", st.inm)
			}
			out.WriteString("\n" + exchange(t, hop.url, st) + "\n")
		}
	}
	return out.String()
}

// seriesSet renders the (type, name, labels) of every series base's
// /metrics exposes, one per line, sorted.
func seriesSet(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	series, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, s := range series {
		line := s.Type + " " + s.Name
		for _, l := range s.Labels {
			line += " " + l.Key + "=" + strconv.Quote(l.Value)
		}
		lines = append(lines, line)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// golden compares got with testdata/name. A missing file is written
// from this run and fails the test, like internal/sim's golden: delete
// the file to regenerate it after an intended change, and say in the
// commit what moved.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing; wrote it from this run — review and commit it", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got  %q\n want %q", path, i+1, g, w)
		}
	}
}

// TestWireGolden holds the request path still: the fixed script against
// a store-backed origin and through an edge answers, byte for byte,
// what the fixture captured at fb86316 (before the per-request work was
// hoisted) says — status line, every header in the order and case the
// server writes it, and the body. The four /manifest.json entries (GET
// and HEAD, origin and edge) were re-captured once since, when the
// manifest's wire encoding became binary: Content-Length, Content-Type,
// Etag and the body's hash; every tile and error entry is fb86316's.
func TestWireGolden(t *testing.T) {
	dir, _ := publishWire(t, wireManifest())
	golden(t, "wire_golden.txt", newWireStack(t, dir).runScript(t))
}

// TestSeriesSetGolden: resolving instruments once must not register one
// earlier or under another label set. After the script, the series at
// the origin (server and store) and at the edge (edge and fleet) are
// the fixture's, and an edge that served nothing exposes only what it
// did before.
func TestSeriesSetGolden(t *testing.T) {
	dir, _ := publishWire(t, wireManifest())
	ws := newWireStack(t, dir)
	idle := "## idle edge\n" + seriesSet(t, ws.edge)
	ws.runScript(t)
	golden(t, "series_golden.txt", idle+
		"\n## origin after the script\n"+seriesSet(t, ws.origin)+
		"\n## edge after the script\n"+seriesSet(t, ws.edge))
}

// getWhole GETs url and reads the whole body; a body shorter than its
// declared length (the torn 200) fails the test here.
func getWhole(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: body: %v", url, err)
	}
	return resp, string(body)
}

// TestCollectedBlobIs410NotATorn200 is the one path the fixture's
// parent got wrong. When GC has removed a blob the origin's catalog
// still names, the origin used to answer 200 with the tile's
// Content-Length and no body: the edge's fleet read "unexpected EOF", a
// transport failure, retried, and charged a healthy origin's breaker.
// Now the origin answers 410 like any retired tile, and the edge caches
// that answer for NegTTL instead of asking again.
func TestCollectedBlobIs410NotATorn200(t *testing.T) {
	dir, cat := publishWire(t, wireManifest())
	ws := newWireStack(t, dir)
	const path = "/video/1/0/0.bin"
	digest := cat.Tiles[path].Digest
	if err := os.Remove(filepath.Join(dir, "blobs", digest[:2], digest[2:])); err != nil {
		t.Fatal(err)
	}
	const gone = "tile retired from availability window\n"
	if resp, body := getWhole(t, ws.origin+path); resp.StatusCode != http.StatusGone || body != gone {
		t.Fatalf("origin: %d %q, want 410 %q", resp.StatusCode, body, gone)
	}
	for i, want := range []string{"miss", "hit", "hit"} {
		resp, body := getWhole(t, ws.edge+path)
		if resp.StatusCode != http.StatusGone || body != gone || resp.Header.Get("X-Cache") != want {
			t.Fatalf("edge GET %d: %d %q X-Cache %q, want 410 %q", i, resp.StatusCode, body, resp.Header.Get("X-Cache"), want)
		}
	}
	if n := ws.tb.Origins[0].TileRequests(); n != 2 {
		t.Errorf("origin saw %d tile requests, want 2: its own GET and the edge's one fill", n)
	}
	if n := ws.edgeReg.CounterSum("pano_fleet_failures_total"); n != 0 {
		t.Errorf("the fleet counted %v origin failures for a definitive 410", n)
	}
	if v := ws.edgeReg.GaugeValue("pano_fleet_breaker_state", obs.L("origin", "0")); v != 0 {
		t.Errorf("origin breaker gauge %v, want closed", v)
	}
}

// TestUnreadableBlobIs500: a blob that is there but cannot be read —
// here a directory where the file should be — is the origin failing,
// not a retirement. The origin says 500 with the store's error instead
// of the torn 200; the edge's fleet counts a 5xx (not a truncated body)
// against it, and the edge answers 502.
func TestUnreadableBlobIs500(t *testing.T) {
	dir, cat := publishWire(t, wireManifest())
	ws := newWireStack(t, dir)
	const path = "/video/1/0/0.bin"
	digest := cat.Tiles[path].Digest
	blob := filepath.Join(dir, "blobs", digest[:2], digest[2:])
	if err := os.Remove(blob); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(blob, 0o755); err != nil {
		t.Fatal(err)
	}
	if resp, body := getWhole(t, ws.origin+path); resp.StatusCode != http.StatusInternalServerError || !strings.HasPrefix(body, "server: backend: store: get: ") {
		t.Fatalf("origin: %d %q, want 500 with the store's error", resp.StatusCode, body)
	}
	if resp, _ := getWhole(t, ws.edge+path); resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("edge: %d, want 502", resp.StatusCode)
	}
	if n := ws.edgeReg.CounterValue("pano_fleet_failures_total", obs.L("origin", "0"), obs.L("class", "http_5xx")); n == 0 {
		t.Error("the fleet counted no http_5xx failure")
	}
	if n := ws.edgeReg.CounterValue("pano_fleet_failures_total", obs.L("origin", "0"), obs.L("class", "truncated")); n != 0 {
		t.Errorf("the fleet counted %v truncated bodies: the origin sent a torn response", n)
	}
}
