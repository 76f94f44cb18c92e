package client

import (
	"bufio"
	"context"
	"net"
	"net/http"
	"net/url"
	"time"

	"pano/internal/abr"
	"pano/internal/codec"
	"pano/internal/server"
	"pano/internal/trace"
)

// pipeline is one session's view of a Client that sends each chunk's
// planned tile GETs as one turn: written back to back on a persistent
// connection of its own (HTTP/1.1 pipelining), their answers read in
// tile order as the fetch ladder asks for them — a server answers a
// pipeline in order. A request off the turn (the manifest, a retry, a
// lowest-rung re-fetch) is a fresh request through the Client. When the
// connection breaks (reset, truncation, a read deadline), the turn's
// unanswered tail is re-sent as one new turn on a new connection the
// next time the ladder reads from it. The pipeline belongs to its
// session's goroutine, so one Client serves concurrent sessions.
type pipeline struct {
	*Client
	host, prefix, addr string // Host header, path prefix and dial address of BaseURL
	dial               func(ctx context.Context, network, addr string) (net.Conn, error)

	conn net.Conn // nil until dialed and after it breaks
	br   *bufio.Reader
	// k is the turn's chunk and q[head:] its unanswered requests, in
	// order: all of them written on conn when conn is non-nil, none of
	// them when it is nil.
	k    int
	q    []queued
	head int
	wire []byte // the turn's request bytes
}

// queued is one pipelined request: the tile, its level, and the
// traceparent naming the attempt span that reads the answer.
type queued struct {
	ti     int
	l      codec.Level
	parent string
}

// pipeline returns a session pipeline over c, or nil when c cannot own
// its connections: a base URL that is not plain http or that carries
// what a request line cannot (userinfo, a query, a fragment), an HTTP
// client whose RoundTripper is not an *http.Transport (a recording or
// fault-injecting wrapper is asked for every request, one at a time),
// or one that reaches the server through a proxy.
func (c *Client) pipeline() *pipeline {
	u, err := url.Parse(c.BaseURL)
	if err != nil || u.Scheme != "http" || u.User != nil || u.RawQuery != "" || u.ForceQuery || u.Fragment != "" {
		return nil
	}
	rt := c.httpClient().Transport
	if rt == nil {
		rt = http.DefaultTransport
	}
	tr, ok := rt.(*http.Transport)
	if !ok {
		return nil
	}
	if tr.Proxy != nil {
		if via, err := tr.Proxy(&http.Request{URL: u}); err != nil || via != nil {
			return nil
		}
	}
	addr := u.Host
	if u.Port() == "" {
		addr = net.JoinHostPort(u.Hostname(), "80")
	}
	dial := tr.DialContext
	if dial == nil {
		dial = (&net.Dialer{Timeout: 30 * time.Second}).DialContext
	}
	return &pipeline{Client: c, host: u.Host, prefix: u.EscapedPath(), addr: addr, dial: dial, k: -1}
}

// Turn implements Pipeliner: it queues chunk k's planned requests and
// writes them as one turn. A write that fails leaves the turn to be
// re-sent by the first read.
func (p *pipeline) Turn(ctx context.Context, k int, alloc abr.Allocation, spans []trace.Reserved) {
	if p.head < len(p.q) {
		p.hangUp() // the last turn's answers were never read; the stream cannot skip them
	}
	p.k, p.q, p.head = k, p.q[:0], 0
	for ti, l := range alloc {
		r := queued{ti: ti, l: l}
		if spans != nil {
			r.parent = spans[ti].Traceparent()
		}
		p.q = append(p.q, r)
	}
	_ = p.send(ctx)
}

// Tile implements Transport: the turn's next answer when (k, ti, l) is
// at its head, a fresh request through the Client otherwise.
func (p *pipeline) Tile(ctx context.Context, k, ti int, l codec.Level) (float64, error) {
	if k != p.k || p.head == len(p.q) || p.q[p.head].ti != ti || p.q[p.head].l != l {
		return p.Client.Tile(ctx, k, ti, l)
	}
	if p.conn == nil {
		// The connection broke: the unanswered tail is a new turn.
		if err := p.send(ctx); err != nil {
			p.head++
			return 0, tileErr(k, ti, l, err)
		}
	}
	p.head++
	data, err := p.read(ctx, k, ti, l)
	return float64(len(data) * 8), err
}

// send writes the unanswered requests back to back, dialing first when
// there is no connection: one turn.
func (p *pipeline) send(ctx context.Context) error {
	if p.conn == nil {
		conn, err := p.dial(ctx, "tcp", p.addr)
		if err != nil {
			return err
		}
		p.conn = conn
		if p.br == nil {
			p.br = bufio.NewReader(conn)
		} else {
			p.br.Reset(conn)
		}
	}
	dl, _ := ctx.Deadline()
	p.conn.SetWriteDeadline(dl)
	p.wire = p.wire[:0]
	for _, r := range p.q[p.head:] {
		p.wire = append(p.wire, "GET "...)
		p.wire = append(p.wire, p.prefix...)
		p.wire = append(p.wire, server.TilePath(p.k, r.ti, r.l)...)
		p.wire = append(p.wire, " HTTP/1.1\r\nHost: "...)
		p.wire = append(p.wire, p.host...)
		if r.parent != "" {
			p.wire = append(p.wire, "\r\nTraceparent: "...)
			p.wire = append(p.wire, r.parent...)
		}
		p.wire = append(p.wire, "\r\n\r\n"...)
	}
	if _, err := p.conn.Write(p.wire); err != nil {
		p.hangUp()
		return err
	}
	return nil
}

// read reads the turn's next answer under ctx's deadline, which starts
// when the answer is next in line. An answer that leaves the stream out
// of step — a transport error, a short body, the server closing —
// hangs up the connection.
func (p *pipeline) read(ctx context.Context, k, ti int, l codec.Level) ([]byte, error) {
	conn := p.conn
	dl, _ := ctx.Deadline()
	conn.SetReadDeadline(dl)
	stop := context.AfterFunc(ctx, func() { conn.SetReadDeadline(time.Unix(1, 0)) })
	defer func() {
		if !stop() {
			p.hangUp() // the callback has run, or still may: conn's deadline is not ours
		}
	}()
	// A connection that ends before the answer's first byte was reset,
	// as the Client reports it; ReadResponse would call it truncated.
	_, err := p.br.Peek(1)
	var resp *http.Response
	if err == nil {
		resp, err = http.ReadResponse(p.br, nil)
	}
	var data []byte
	if err == nil {
		if resp.StatusCode == http.StatusOK {
			data, err = readBody(resp)
		}
		if cerr := resp.Body.Close(); cerr != nil || resp.Close {
			p.hangUp()
		}
	}
	if err != nil {
		p.hangUp()
		if cerr := ctx.Err(); cerr != nil {
			err = cerr // the deadline or the session's cancellation, as the Client reports it
		}
		return nil, tileErr(k, ti, l, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, tileErr(k, ti, l, &StatusError{Code: resp.StatusCode})
	}
	return checkTile(data, k, ti, l)
}

// hangUp closes the connection; unanswered requests stay queued, to be
// re-sent as a new turn.
func (p *pipeline) hangUp() {
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
}
