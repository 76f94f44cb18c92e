package client

import (
	"context"
	"fmt"
	"io"
	"net/http"

	"pano/internal/mathx"
	"pano/internal/trace"
)

// RawResult is the outcome of a resilient conditional GET of one origin
// object. Unlike FetchTile it is byte-transparent: any definitive origin
// answer (2xx, 3xx, 4xx) is a result, not an error, because a caching
// tier must be able to store and replay negative answers too.
type RawResult struct {
	// Status is the origin's HTTP status code.
	Status int
	// Body is the response body ("" for 304; error pages for 4xx).
	Body []byte
	// ETag and ContentType echo the origin's validators.
	ETag        string
	ContentType string
	// NotModified is true when the origin answered 304 to the
	// conditional request: the caller's cached copy is still current and
	// Body is empty by design.
	NotModified bool
}

// FetchRaw performs a resilient conditional GET of an arbitrary origin
// path (server.ManifestPath, a server.TilePath, ...). When etag is
// non-empty the request carries If-None-Match and a 304 answer comes
// back as NotModified — the revalidation fast path. Retryable failures
// (5xx, transport errors, per-attempt deadline expiry) follow pol's
// backoff ladder, exactly like tile fetches but without the level
// downgrade (a cache has no lower rung to fall to); definitive answers
// return immediately. ctx cancellation and attempt exhaustion are the
// only error paths.
func (c *Client) FetchRaw(ctx context.Context, path, etag string, pol FetchPolicy, rng *mathx.RNG) (RawResult, error) {
	pol = pol.WithDefaults()
	var lastErr error
	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		actx, cancel := context.WithTimeout(ctx, pol.AttemptTimeout)
		res, err := c.fetchRawOnce(actx, path, etag)
		cancel()
		if err == nil {
			return res, nil
		}
		if ctx.Err() != nil {
			return RawResult{}, ctx.Err()
		}
		lastErr = err
		if !retryable(err) {
			break
		}
		if attempt < pol.MaxAttempts-1 {
			if serr := sleepCtx(ctx, pol.Backoff(attempt, rng)); serr != nil {
				return RawResult{}, serr
			}
		}
	}
	return RawResult{}, fmt.Errorf("client: raw %s: %w", path, lastErr)
}

// fetchRawOnce is one attempt: errors are returned only for retryable
// transport/server failures; origin answers below 500 are results.
func (c *Client) fetchRawOnce(ctx context.Context, path, etag string) (RawResult, error) {
	resp, err := c.get(ctx, c.BaseURL+path, etag, trace.FromContext(ctx).Traceparent())
	if err != nil {
		return RawResult{}, err
	}
	defer drainClose(resp)
	out := RawResult{
		Status:      resp.StatusCode,
		ETag:        resp.Header.Get("ETag"),
		ContentType: resp.Header.Get("Content-Type"),
	}
	if resp.StatusCode == http.StatusNotModified {
		out.NotModified = true
		return out, nil
	}
	if resp.StatusCode >= 500 {
		return RawResult{}, &StatusError{Code: resp.StatusCode}
	}
	body, err := readBody(resp)
	if err != nil {
		return RawResult{}, err
	}
	out.Body = body
	return out, nil
}

// get issues the one kind of request this client makes: a GET of url
// under ctx, conditional when etag is set, carrying parent (a span's
// W3C traceparent, "" for none) so the server's handler span joins the
// trace. The caller owns the response (drainClose).
func (c *Client) get(ctx context.Context, url, etag, parent string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	if parent != "" {
		req.Header.Set("traceparent", parent)
	}
	return c.httpClient().Do(req)
}

// maxSizedBody is the largest body readBody allocates for on the
// response's word; manifests are a few hundred KiB, tiles a few dozen.
const maxSizedBody = 16 << 20

// readBody reads a response body whole. The length is on the wire, so
// the buffer is made once at that size instead of grown by doubling; a
// body that ends early is io.ErrUnexpectedEOF either way. Unknown
// (chunked) and implausibly large lengths are read by io.ReadAll.
func readBody(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n < 0 || n > maxSizedBody {
		return io.ReadAll(resp.Body)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(resp.Body, body); err != nil {
		return nil, err
	}
	return body, nil
}
