// Package server implements the video provider's HTTP endpoint. Like
// the paper's deployment (§7), the server is a plain DASH-style HTTP
// object store and never participates in adaptation: it serves the
// manifest (which embeds the compressed PSPNR lookup table) and
// per-tile media objects addressed by chunk, tile, and quality level.
// No CDN or protocol changes are required (§3, Figure 5).
package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"pano/internal/codec"
	"pano/internal/manifest"
	"pano/internal/obs"
	"pano/internal/telemetry"
	"pano/internal/trace"
)

// Server serves one video.
type Server struct {
	reg    *obs.Registry
	log    *obs.EventLog
	tracer *trace.Tracer
	tel    *telemetry.Sampler

	// backend supplies the manifest and every tile object. New wraps a
	// fixed manifest in an in-memory Backend; NewBackend takes one whose
	// content may change underneath (a live publisher's store).
	backend Backend

	// Cache-validation state shared by every response: the
	// Last-Modified anchor, and its header value rendered once in
	// newServer. ETags come from the backend.
	lastMod      time.Time
	lastModified []string
}

// The object paths Handler serves (§6.2's plain objects at fixed paths);
// every hop that routes, caches, places, counts or fault-injects by
// path names them through these.
const (
	ManifestPath = "/manifest.json"
	MPDPath      = "/manifest.mpd"
	TilePrefix   = "/video/"
)

// maxAge is the freshness lifetime advertised in Cache-Control on
// manifest and tile responses: downstream HTTP caches — the
// internal/edge tier included — revalidate with If-None-Match after this
// long and get a 304 when the content is unchanged.
const maxAge = 60 * time.Second

// What a response header carries that no request changes. net/http only
// reads a handler's header values, so every response can share these
// one-element slices.
var (
	cacheControl = []string{maxAgeValue(maxAge)}
	typeOctet    = []string{"application/octet-stream"}
)

// Option configures a Server.
type Option func(*Server)

// WithObs attaches a metrics registry: per-endpoint request counters
// (pano_http_requests_total), latency histograms
// (pano_http_request_seconds), served-bytes counters, and a /metrics
// endpoint on Handler. nil is the no-op default.
func WithObs(reg *obs.Registry) Option {
	return func(s *Server) { s.reg = reg }
}

// WithEventLog attaches a structured request log. nil is the no-op
// default.
func WithEventLog(l *obs.EventLog) Option {
	return func(s *Server) { s.log = l }
}

// WithTracer attaches a span tracer: handler spans opened by
// trace.Middleware (which callers should wrap OUTSIDE any chaos or
// other middleware so those can annotate the active span) get annotated
// with endpoint, status, and bytes here, and finished traces become
// browsable at /debug/traces on Handler. nil is the no-op default.
func WithTracer(t *trace.Tracer) Option {
	return func(s *Server) { s.tracer = t }
}

// WithTelemetry attaches a windowed-telemetry sampler: SLO burn-rate
// state becomes browsable at /debug/slo (JSON) and /debug/dash (live
// SSE dashboard) on Handler. The caller owns the sampler's lifecycle
// (Start/Stop — typically via graceful.Serve's stoppers). nil is the
// no-op default and mounts nothing, keeping the serve path untouched.
func WithTelemetry(t *telemetry.Sampler) Option {
	return func(s *Server) { s.tel = t }
}

// New validates the manifest and returns a server for it: NewBackend
// over an in-memory Backend holding that one manifest.
func New(m *manifest.Video, opts ...Option) (*Server, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	// Encode once, so every response is byte-identical and the ETag is
	// a hash of exactly the bytes on the wire.
	body := m.Marshal()
	sum := sha256.Sum256(body)
	b := &memBackend{man: m, body: body, etag: `"` + hex.EncodeToString(sum[:8]) + `"`}
	return newServer(m, b, opts), nil
}

// newServer is the construction New and NewBackend share; man is the
// backend's already-validated manifest.
func newServer(man *manifest.Video, b Backend, opts []Option) *Server {
	s := &Server{backend: b}
	for _, o := range opts {
		o(s)
	}
	s.lastMod = time.Now().UTC().Truncate(time.Second)
	s.lastModified = []string{s.lastMod.Format(http.TimeFormat)}
	if s.reg != nil {
		s.reg.Gauge("pano_video_chunks", "chunks in the served manifest").Set(float64(man.NumChunks()))
		if man.NumChunks() > 0 {
			s.reg.Gauge("pano_video_tiles_per_chunk", "tiles per chunk in the served manifest").
				Set(float64(len(man.Chunks[0].Tiles)))
		}
	}
	return s
}

// memBackend is the static Backend behind New: one immutable manifest
// in process memory, its encoding and ETag fixed at construction. Tile
// payloads are pure functions of their address (TilePayload, TileETag),
// generated on demand.
type memBackend struct {
	man  *manifest.Video
	body []byte
	etag string
}

// Manifest implements Backend.
func (b *memBackend) Manifest() (*manifest.Video, []byte, string, error) {
	return b.man, b.body, b.etag, nil
}

// Tile implements Backend; an address outside the manifest is
// ErrObjectNotFound.
func (b *memBackend) Tile(k, ti int, l codec.Level) (TileStat, func() ([]byte, error), error) {
	if k < 0 || k >= b.man.NumChunks() || ti < 0 || ti >= len(b.man.Chunks[k].Tiles) || !l.Valid() {
		return TileStat{}, nil, ErrObjectNotFound
	}
	size := TileSizeBytes(&b.man.Chunks[k].Tiles[ti], l)
	read := func() ([]byte, error) { return TilePayload(k, ti, l, size), nil }
	return TileStat{Size: size, ETag: TileETag(k, ti, l, size)}, read, nil
}

// Handler returns the HTTP handler:
//
//	GET /manifest.json   — the native Pano manifest in its binary wire
//	                       encoding (the path predates it; DESIGN.md §4)
//	GET /manifest.mpd    — DASH MPD projection (SRD-tiled, multi-period)
//	GET /video/{chunk}/{tile}/{level}.bin
//
// plus the shared ops surface (telemetry.Mount): /healthz always, and
// /metrics, /debug/events, /debug/traces, /debug/slo + /debug/dash for
// whichever of WithObs, WithEventLog, WithTracer, WithTelemetry is set.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(ManifestPath, s.instrument("manifest", s.handleManifest))
	mux.HandleFunc(MPDPath, s.instrument("mpd", s.handleMPD))
	mux.HandleFunc(TilePrefix, s.instrument("tile", s.handleTile))
	telemetry.Mount(mux, s.reg, s.log, s.tracer, s.tel)
	return mux
}

// statusWriter captures the response code and body size for metrics.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// instrument wraps a handler with per-endpoint request counting,
// latency, served-bytes accounting, structured request logging, and —
// when a trace.Middleware upstream opened a handler span — span
// annotation plus an exemplar linking the latency observation to its
// trace. With no registry, log, or tracer attached it returns h
// untouched.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	if s.reg == nil && s.log == nil && s.tracer == nil {
		return h
	}
	lat := s.reg.Histogram("pano_http_request_seconds",
		"request handling latency by endpoint", nil, obs.L("endpoint", endpoint))
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h(sw, r)
		dur := time.Since(start)
		// Span annotations and log arguments box their values: build them
		// only for a span or a log that exists.
		sp := trace.FromContext(r.Context())
		if sp != nil {
			sp.Annotate(trace.A("endpoint", endpoint), trace.A("code", sw.code), trace.A("bytes", sw.bytes))
			if sw.code >= 500 {
				sp.SetError("http_5xx")
			}
		}
		lat.ObserveExemplar(dur.Seconds(), sp.TraceHex())
		s.reg.Counter("pano_http_requests_total", "HTTP requests by endpoint, method, and status",
			obs.L("endpoint", endpoint), obs.L("method", r.Method),
			obs.L("code", strconv.Itoa(sw.code))).Inc()
		s.reg.Counter("pano_http_response_bytes_total", "response body bytes by endpoint",
			obs.L("endpoint", endpoint)).Add(float64(sw.bytes))
		if endpoint == "tile" && sw.code == http.StatusOK {
			s.reg.Counter("pano_tile_bytes_total", "tile media bytes served").Add(float64(sw.bytes))
		}
		if s.log != nil {
			s.log.Logger().Info("http_request",
				"endpoint", endpoint, "method", r.Method, "path", r.URL.Path,
				"code", sw.code, "bytes", sw.bytes, "seconds", dur.Seconds())
		}
	}
}

// writeError reports a failed or truncated response write. By the time
// an Encode/Write fails the status line is already on the wire, so the
// client only sees a short body — the counter and event make the
// truncation visible server-side instead of being swallowed.
func (s *Server) writeError(endpoint string, err error) {
	s.reg.Counter("pano_http_write_errors_total",
		"failed or truncated response body writes by endpoint",
		obs.L("endpoint", endpoint)).Inc()
	s.log.Logger().Warn("http_write_error", "endpoint", endpoint, "error", err.Error())
}

func (s *Server) handleMPD(w http.ResponseWriter, r *http.Request) {
	if !obs.AllowGetHead(w, r) {
		return
	}
	w.Header().Set("Content-Type", "application/dash+xml")
	if r.Method == http.MethodHead {
		return
	}
	man, _, _, err := s.backend.Manifest()
	if err != nil {
		s.writeError("mpd", err)
		return
	}
	if err := man.MPD().Encode(w); err != nil {
		s.writeError("mpd", err)
	}
}

// cacheHeaders stamps the validators a downstream cache needs: a strong
// ETag, an explicit freshness lifetime, and Last-Modified (§7: the
// manifest and tile objects are ordinary HTTP objects, so any DASH-
// compatible cache can hold them). Only the ETag is this response's
// own; keys are written in canonical form, which is what Header.Set
// would have made of them.
func (s *Server) cacheHeaders(w http.ResponseWriter, etag string, cacheControl []string) {
	h := w.Header()
	h["Etag"] = []string{etag}
	h["Cache-Control"] = cacheControl
	h["Last-Modified"] = s.lastModified
}

// maxAgeValue renders a Cache-Control freshness lifetime.
func maxAgeValue(d time.Duration) string {
	return "max-age=" + strconv.Itoa(int(d.Seconds()))
}

func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	if !obs.AllowGetHead(w, r) {
		return
	}
	man, body, etag, err := s.backend.Manifest()
	if err != nil {
		http.Error(w, "server: backend: "+err.Error(), http.StatusInternalServerError)
		return
	}
	control := cacheControl
	if man.Live {
		// A live manifest changes every publish: a manifest cached for
		// the VOD lifetime would hide published chunks from every client
		// behind an edge. Immutable tiles keep the full lifetime.
		control = []string{maxAgeValue(min(man.RefreshInterval(), maxAge))}
	}
	s.cacheHeaders(w, etag, control)
	if obs.ETagMatch(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header()["Content-Type"] = typeOctet
	w.Header()["Content-Length"] = []string{strconv.Itoa(len(body))}
	if r.Method == http.MethodHead {
		return
	}
	if _, err := w.Write(body); err != nil {
		// Too late for a status code: the client sees a truncated body.
		// Count and log it so silent manifest truncation is visible.
		s.writeError("manifest", err)
	}
}

// TileSizeBytes returns the serialized media size of a tile object.
func TileSizeBytes(t *manifest.Tile, l codec.Level) int {
	return int(math.Ceil(t.Bits[l] / 8))
}

// TilePayload deterministically generates the media bytes for a tile
// object. The first 16 bytes are a header encoding (chunk, tile, level)
// so clients can verify they received the right object; the rest is
// filler standing in for entropy-coded residuals.
func TilePayload(k, ti int, l codec.Level, size int) []byte {
	if size < 16 {
		size = 16
	}
	buf := make([]byte, size)
	binary.BigEndian.PutUint32(buf[0:], uint32(k))
	binary.BigEndian.PutUint32(buf[4:], uint32(ti))
	binary.BigEndian.PutUint32(buf[8:], uint32(l))
	binary.BigEndian.PutUint32(buf[12:], uint32(size))
	state := uint64(k)<<40 ^ uint64(ti)<<20 ^ uint64(l) ^ 0x9e3779b97f4a7c15
	for i := 16; i < size; i++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		buf[i] = byte(state)
	}
	return buf
}

// ErrTileHeader marks a tile object whose header does not name the tile
// asked for: a short or misrouted body.
var ErrTileHeader = errors.New("bad tile header")

// CheckTileHeader verifies that data is tile (k, ti)'s object: at least
// TilePayload's 16-byte header, naming that chunk and tile. Its errors
// wrap ErrTileHeader.
func CheckTileHeader(data []byte, k, ti int) error {
	if len(data) < 16 {
		return fmt.Errorf("%w: short object (%d bytes)", ErrTileHeader, len(data))
	}
	if gk, gt := binary.BigEndian.Uint32(data[0:]), binary.BigEndian.Uint32(data[4:]); int(gk) != k || int(gt) != ti {
		return fmt.Errorf("%w: it names tile %d/%d", ErrTileHeader, gk, gt)
	}
	return nil
}

// TileETag returns the strong entity tag of a tile object. TilePayload
// is a pure function of (chunk, tile, level, size), so a mix of exactly
// those inputs identifies the content without generating it — the 304
// revalidation path never materializes a payload.
func TileETag(k, ti int, l codec.Level, size int) string {
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
	// The quoted 16-digit lower-case hex of h — what %q of %016x renders,
	// hex digits needing no escape.
	const digits = "0123456789abcdef"
	var tag [18]byte
	tag[0], tag[17] = '"', '"'
	for i := 16; i >= 1; i-- {
		tag[i] = digits[h&0xf]
		h >>= 4
	}
	return string(tag[:])
}

// ParseTilePath parses "/video/{chunk}/{tile}/{level}.bin". It runs on
// every tile request at the origin and allocates nothing for a path
// that parses.
func ParseTilePath(path string) (chunk, tile int, level codec.Level, err error) {
	c, rest, ok := strings.Cut(strings.TrimPrefix(path, TilePrefix), "/")
	t, lv, ok2 := strings.Cut(rest, "/")
	if !ok || !ok2 || strings.IndexByte(lv, '/') >= 0 || !strings.HasSuffix(lv, ".bin") {
		return 0, 0, 0, fmt.Errorf("server: bad tile path %q", path)
	}
	chunk, err = strconv.Atoi(c)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("server: bad chunk in %q", path)
	}
	tile, err = strconv.Atoi(t)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("server: bad tile in %q", path)
	}
	n, err := strconv.Atoi(strings.TrimSuffix(lv, ".bin"))
	if err != nil {
		return 0, 0, 0, fmt.Errorf("server: bad level in %q", path)
	}
	return chunk, tile, codec.Level(n), nil
}

// TilePath renders the URL path for a tile object.
func TilePath(chunk, tile int, level codec.Level) string {
	var buf [48]byte
	return string(AppendTilePath(buf[:0], chunk, tile, level))
}

// AppendTilePath appends TilePath's rendering to dst, for callers that
// only look the path up (a catalog keyed by it) and need no string.
func AppendTilePath(dst []byte, chunk, tile int, level codec.Level) []byte {
	dst = append(dst, TilePrefix...)
	dst = strconv.AppendInt(dst, int64(chunk), 10)
	dst = append(dst, '/')
	dst = strconv.AppendInt(dst, int64(tile), 10)
	dst = append(dst, '/')
	dst = strconv.AppendInt(dst, int64(level), 10)
	return append(dst, ".bin"...)
}

func (s *Server) handleTile(w http.ResponseWriter, r *http.Request) {
	if !obs.AllowGetHead(w, r) {
		return
	}
	k, ti, l, err := ParseTilePath(r.URL.Path)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if k < 0 || ti < 0 || !l.Valid() {
		http.NotFound(w, r)
		return
	}
	// Existence, size, and ETag come from the backend, resolved once.
	st, read, err := s.backend.Tile(k, ti, l)
	if err != nil {
		tileError(w, r, err)
		return
	}
	if obs.ETagMatch(r.Header.Get("If-None-Match"), st.ETag) {
		// 304 from the stat alone: no payload is read or generated.
		s.cacheHeaders(w, st.ETag, cacheControl)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	var body []byte
	if r.Method != http.MethodHead {
		// Read before the first header is set: nothing is on the wire yet,
		// so a payload that cannot be produced still gets its own status
		// instead of a 200 whose declared length never arrives.
		if body, err = read(); err != nil {
			tileError(w, r, err)
			return
		}
	}
	s.cacheHeaders(w, st.ETag, cacheControl)
	w.Header()["Content-Type"] = typeOctet
	w.Header()["Content-Length"] = []string{strconv.Itoa(max(st.Size, 16))}
	if r.Method == http.MethodHead {
		return
	}
	if _, err := w.Write(body); err != nil {
		s.writeError("tile", err)
	}
}

// tileError answers a tile the backend could not resolve or read: 404
// for unpublished objects, 410 for retired ones — including one whose
// bytes were collected between the catalog naming it and the read,
// which downstream caches may negative-cache like any other retirement
// — and 500 for anything else.
func tileError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, ErrObjectGone):
		http.Error(w, "tile retired from availability window", http.StatusGone)
	case errors.Is(err, ErrObjectNotFound):
		http.NotFound(w, r)
	default:
		http.Error(w, "server: backend: "+err.Error(), http.StatusInternalServerError)
	}
}
