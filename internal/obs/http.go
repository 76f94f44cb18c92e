package obs

import (
	"net/http"
	"strings"
)

// AllowGetHead rejects every method but GET and HEAD with 405 (plus an
// Allow header), reporting whether the request may proceed. Every pano
// HTTP surface shares it — the origin's and the edge's object endpoints
// and /metrics, /debug/slo, /debug/dash, /debug/traces, /debug/events,
// /healthz — so method handling stays uniform across binaries; handlers
// that pass must still skip their body write on HEAD.
func AllowGetHead(w http.ResponseWriter, r *http.Request) bool {
	if r.Method == http.MethodGet || r.Method == http.MethodHead {
		return true
	}
	w.Header().Set("Allow", "GET, HEAD")
	http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	return false
}

// ETagMatch reports whether an If-None-Match header value matches the
// representation's ETag, by the weak comparison RFC 9110 §8.8.3.2 asks
// of If-None-Match: "*" matches anything, otherwise any member of the
// comma-separated list compares equal once a W/ prefix is ignored.
// Origin and edge answer conditional requests with it. It allocates
// nothing.
func ETagMatch(header, etag string) bool {
	if etag == "" {
		return false
	}
	for header != "" {
		var cand string
		cand, header, _ = strings.Cut(header, ",")
		cand = strings.TrimSpace(cand)
		if cand == "*" || strings.TrimPrefix(cand, "W/") == etag {
			return true
		}
	}
	return false
}
