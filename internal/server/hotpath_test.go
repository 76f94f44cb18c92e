package server

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"pano/internal/codec"
	"pano/internal/manifest"
)

// sprintfTileETag is TileETag as it was, two Sprintfs: the reference
// for the hex append.
func sprintfTileETag(k, ti int, l codec.Level, size int) string {
	mix := func(h, v uint64) uint64 {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		return h ^ (h >> 31)
	}
	h := mix(0x243f6a8885a308d3, uint64(k))
	h = mix(h, uint64(ti))
	h = mix(h, uint64(l))
	h = mix(h, uint64(size))
	return fmt.Sprintf("%q", fmt.Sprintf("%016x", h))
}

// TestTileETagUnchanged: every tile of a bench-shaped video (8 chunks ×
// 30 tiles × 5 levels, sizes in the bench video's range) and the
// corners carry the tag the Sprintf form gave them — an edge holding
// entries from before revalidates them with a 304, not a refetch.
func TestTileETagUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(2019))
	n := 0
	for k := 0; k < 8; k++ {
		for ti := 0; ti < 30; ti++ {
			for l := 0; l < codec.NumLevels; l++ {
				size := 16 + rng.Intn(36<<10)
				if got, want := TileETag(k, ti, codec.Level(l), size), sprintfTileETag(k, ti, codec.Level(l), size); got != want {
					t.Fatalf("TileETag(%d, %d, %d, %d) = %s, was %s", k, ti, l, size, got, want)
				}
				n++
			}
		}
	}
	if n != 1200 {
		t.Fatalf("checked %d tiles", n)
	}
	for _, c := range [][4]int{{0, 0, 0, 0}, {-1, -1, -1, -1}, {1 << 40, 1 << 20, 4, 1 << 31}, {7, 29, 4, 5}} {
		if got, want := TileETag(c[0], c[1], codec.Level(c[2]), c[3]), sprintfTileETag(c[0], c[1], codec.Level(c[2]), c[3]); got != want {
			t.Errorf("TileETag%v = %s, was %s", c, got, want)
		}
	}
}

// splitParseTilePath is ParseTilePath as it was, on strings.Split: the
// oracle of the table and the fuzz target below.
func splitParseTilePath(path string) (chunk, tile int, level codec.Level, err error) {
	rest := strings.TrimPrefix(path, "/video/")
	parts := strings.Split(rest, "/")
	if len(parts) != 3 || !strings.HasSuffix(parts[2], ".bin") {
		return 0, 0, 0, fmt.Errorf("server: bad tile path %q", path)
	}
	chunk, err = strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, 0, fmt.Errorf("server: bad chunk in %q", path)
	}
	tile, err = strconv.Atoi(parts[1])
	if err != nil {
		return 0, 0, 0, fmt.Errorf("server: bad tile in %q", path)
	}
	lv, err := strconv.Atoi(strings.TrimSuffix(parts[2], ".bin"))
	if err != nil {
		return 0, 0, 0, fmt.Errorf("server: bad level in %q", path)
	}
	return chunk, tile, codec.Level(lv), nil
}

// sameParse fails unless ParseTilePath and the Split-based parser agree
// on path: the same triple, or the same error — its text is the 400
// response's body.
func sameParse(t *testing.T, path string) {
	t.Helper()
	k, ti, l, err := ParseTilePath(path)
	wk, wti, wl, werr := splitParseTilePath(path)
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("ParseTilePath(%q): error %v, the Split-based parser says %v", path, err, werr)
	}
	if k != wk || ti != wti || l != wl {
		t.Fatalf("ParseTilePath(%q) = %d/%d/%d, the Split-based parser says %d/%d/%d", path, k, ti, l, wk, wti, wl)
	}
}

var tilePathSeeds = []string{
	"/video/0/0/0.bin", "/video/7/29/4.bin", "/video/12/3/1.bin", "/video/-1/0/0.bin", "/video/+1/0/0.bin",
	"/video/1/0/9.bin", "/video/1/0/-1.bin", "/video/x/0/0.bin", "/video/0/x/0.bin", "/video/0/0/x.bin",
	"/video/1/0/0", "/video/1/0/0.bi", "/video/1/0/0/0.bin", "/video/1/0", "/video/", "/video", "",
	"1/2/3.bin", "/video//0/0.bin", "/video/0//0.bin", "/video/0/0/.bin", "/video/0/0/0.bin/", "//0.bin",
	"/video/99999999999999999999/0/0.bin", "/video/1/0/0.bin.bin", "/video/video/1/0/0.bin", "/video/1_0/0/0.bin",
	"/video/0x1/0/0.bin", "/video/ 1/0/0.bin", "/video/1/0/0.BIN",
}

func TestParseTilePathMatchesSplit(t *testing.T) {
	for _, p := range tilePathSeeds {
		sameParse(t, p)
	}
	for k := -1; k < 12; k++ {
		for ti := -1; ti < 32; ti += 3 {
			for l := -1; l <= codec.NumLevels; l++ {
				p := TilePath(k, ti, codec.Level(l))
				if want := fmt.Sprintf("/video/%d/%d/%d.bin", k, ti, l); p != want {
					t.Fatalf("TilePath(%d, %d, %d) = %q, want %q", k, ti, l, p, want)
				}
				sameParse(t, p)
				if gk, gti, gl, err := ParseTilePath(p); err != nil || gk != k || gti != ti || int(gl) != l {
					t.Fatalf("ParseTilePath(%q) = %d/%d/%d, %v", p, gk, gti, gl, err)
				}
			}
		}
	}
}

// objectPathLiteral matches an object path written out as a quoted
// literal instead of through ManifestPath, MPDPath or TilePrefix.
var objectPathLiteral = regexp.MustCompile(`"/manifest\.json"|"/manifest\.mpd"|"/video/`)

// TestObjectPathsHaveOneHome: the object paths are written out once,
// here. Non-test Go outside this package and benchmark/ (which calls the
// program as it stands) names them through the constants, so a renamed
// path is one edit.
func TestObjectPathsHaveOneHome(t *testing.T) {
	files := 0
	err := filepath.WalkDir(filepath.Join("..", ".."), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "benchmark", ".bench_build", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		files++
		if filepath.Dir(path) == filepath.Join("..", "..", "internal", "server") {
			return nil // this package
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			if lit := objectPathLiteral.FindString(line); lit != "" {
				t.Errorf("%s:%d writes %s; use server.ManifestPath, MPDPath or TilePrefix", path, i+1, lit)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("scan found %d non-test Go files; the scan is broken", files)
	}
}

// FuzzParseTilePath holds the Cut-based parser to the Split-based one
// on arbitrary paths (`make fuzz-server`).
func FuzzParseTilePath(f *testing.F) {
	for _, p := range tilePathSeeds {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, path string) { sameParse(t, path) })
}

// TestPathAndTagAllocations: a tile request parses its path without
// allocating and pays one string for its ETag.
func TestPathAndTagAllocations(t *testing.T) {
	path := TilePath(7, 29, 4)
	if n := testing.AllocsPerRun(200, func() {
		if _, _, _, err := ParseTilePath(path); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ParseTilePath: %v allocs/op, want 0", n)
	}
	var tag string
	if n := testing.AllocsPerRun(200, func() { tag = TileETag(7, 29, 4, 1800) }); n != 1 {
		t.Errorf("TileETag: %v allocs/op, want 1", n)
	}
	var buf [48]byte
	if n := testing.AllocsPerRun(200, func() { _ = AppendTilePath(buf[:0], 7, 29, 4) }); n != 0 {
		t.Errorf("AppendTilePath into a stack buffer: %v allocs/op, want 0", n)
	}
	_ = tag
}

// scriptedBackend resolves every tile to the same stat and fails or
// succeeds its read as told, counting the reads.
type scriptedBackend struct {
	man     *manifest.Video
	readErr error
	reads   int
}

func (b *scriptedBackend) Manifest() (*manifest.Video, []byte, string, error) {
	return b.man, []byte("{}"), `"m"`, nil
}

func (b *scriptedBackend) Tile(k, ti int, l codec.Level) (TileStat, func() ([]byte, error), error) {
	st := TileStat{Size: 40, ETag: TileETag(k, ti, l, 40)}
	return st, func() ([]byte, error) {
		b.reads++
		if b.readErr != nil {
			return nil, b.readErr
		}
		return TilePayload(k, ti, l, 40), nil
	}, nil
}

// TestUnreadableTileGetsItsOwnStatus is the regression test for the
// torn 200: a tile whose stat resolves but whose bytes cannot be
// produced used to answer 200 with Content-Length 40 and no body (the
// client's "unexpected EOF", a transport failure on the fleet's
// breaker). Read over a real listener: a collected blob is 410, any
// other read failure 500, each with the error page's own length, and no
// validator of the tile that is not there.
func TestUnreadableTileGetsItsOwnStatus(t *testing.T) {
	b := &scriptedBackend{man: testManifest(t)}
	s, err := NewBackend(b)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	get := func(method, inm string) (*http.Response, string) {
		t.Helper()
		req, _ := http.NewRequest(method, ts.URL+"/video/0/0/0.bin", nil)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s: reading the body: %v", method, err)
		}
		return resp, string(body)
	}

	for _, c := range []struct {
		err  error
		code int
		body string
	}{
		{ErrObjectGone, http.StatusGone, "tile retired from availability window\n"},
		{fmt.Errorf("wrapped: %w", ErrObjectGone), http.StatusGone, "tile retired from availability window\n"},
		{errors.New("input/output error"), http.StatusInternalServerError, "server: backend: input/output error\n"},
	} {
		b.readErr = c.err
		resp, body := get(http.MethodGet, "")
		if resp.StatusCode != c.code || body != c.body {
			t.Errorf("read failing with %v: %d %q, want %d %q", c.err, resp.StatusCode, body, c.code, c.body)
		}
		if resp.ContentLength != int64(len(c.body)) {
			t.Errorf("read failing with %v: Content-Length %d for a %d-byte error page", c.err, resp.ContentLength, len(c.body))
		}
		for _, h := range []string{"ETag", "Cache-Control", "Last-Modified"} {
			if v := resp.Header.Get(h); v != "" {
				t.Errorf("read failing with %v: error response carries %s: %s", c.err, h, v)
			}
		}
	}

	// HEAD and a matching If-None-Match are answered from the stat: the
	// read is not invoked, so its failure cannot show.
	b.readErr, b.reads = ErrObjectGone, 0
	if resp, _ := get(http.MethodHead, ""); resp.StatusCode != http.StatusOK || resp.ContentLength != 40 {
		t.Errorf("HEAD: %d, Content-Length %d, want 200 and 40", resp.StatusCode, resp.ContentLength)
	}
	if resp, _ := get(http.MethodGet, TileETag(0, 0, 0, 40)); resp.StatusCode != http.StatusNotModified {
		t.Errorf("conditional GET: %d, want 304", resp.StatusCode)
	}
	if b.reads != 0 {
		t.Errorf("HEAD and 304 invoked the read %d times", b.reads)
	}
	b.readErr = nil
	if resp, body := get(http.MethodGet, `"stale"`); resp.StatusCode != http.StatusOK || body != string(TilePayload(0, 0, 0, 40)) || b.reads != 1 {
		t.Errorf("GET: %d, %d body bytes, %d reads", resp.StatusCode, len(body), b.reads)
	}
}
