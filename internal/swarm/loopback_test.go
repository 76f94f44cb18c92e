package swarm

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pano/internal/abr"
	"pano/internal/chaos"
	"pano/internal/client"
	"pano/internal/codec"
	"pano/internal/edge"
	"pano/internal/manifest"
	"pano/internal/nettrace"
	"pano/internal/player"
	"pano/internal/server"
	"pano/internal/testbed"
)

// TestTurnsMatchLoopback is netem's ground truth. One seeded session
// streams over loopback through a warm edge, behind a proxy that holds each
// direction RTT/2 (chaos latency cannot stand in for the RTT: a pipeline
// pays it per request, serially) and carries the answers of all the
// session's connections through one bottleneck of the link's rate. The
// wire is counted — connections dialed, and write bursts: the client's
// bytes since the server last spoke, each one round trip — and each
// chunk's fetch is timed. Fault-free, every chunk is exactly one turn.
// One abort, injected at a planned request with a tail behind it, adds
// exactly one turn (the unanswered tail, re-sent) and one request off the
// turns (the aborted tile's retry). One 500 there adds the retry alone:
// the server keeps the connection, and the tail's answers, already on the
// way, are read after it (netem's warm resume). netem, fed the same plans,
// the same fault and the same link, opens as many turns, sends as many
// requests off them, and takes as long per chunk, within slack — except
// after the 500, where it may take longer by up to the tail's transfer: a
// warm resume charges the tail's bits from when the turn resumes, and the
// wire delivered them during the retry's backoff and round trip.
// Connection set-up is charged on neither side: the proxy hands a
// connection over at once.
//
// A busy machine only ever makes the wire slower (the proxy's timers
// and the client run late), so a session on which netem ran ahead of
// the wire by more than the slack is streamed again, up to three times;
// the counts, and netem never running behind by more than its bound,
// must hold every time.
func TestTurnsMatchLoopback(t *testing.T) {
	for _, fault := range []string{"", "abort", "500"} {
		name := "fault-free"
		if fault != "" {
			name = "one-" + fault
		}
		t.Run(name, func(t *testing.T) {
			for try := 1; ; try++ {
				late := turnsMatchLoopback(t, fault)
				if len(late) == 0 || try == 3 {
					for _, miss := range late {
						t.Error(miss)
					}
					return
				}
				t.Logf("try %d: the wire ran late on %d chunks; streaming again", try, len(late))
			}
		})
	}
}

// turnsMatchLoopback streams one session over the wire and through
// netem, checks the counts and that netem is not late, and returns the
// chunks on which the wire was.
func turnsMatchLoopback(t *testing.T, fault string) (late []string) {
	const (
		rtt = 100 * time.Millisecond
		// slack is what loopback adds to a chunk that netem does not
		// model: the edge's fills and the proxy's scheduling.
		slack = 40 * time.Millisecond
		// chunks streamed: the fault lands on the second.
		chunks = 4
	)
	f := fixture(t)
	m := f.pano
	// A chunk at the session's rate cap crosses the link in a tenth of a
	// chunk, a few RTTs: bits and round trips both show in its time.
	bps := 10 * testbed.RateCap(m)
	tb := testbed.New()
	defer tb.Close()
	if _, err := tb.AddOrigin(testbed.OriginConfig{Manifest: m}); err != nil {
		t.Fatal(err)
	}
	e, err := tb.AddEdge(edge.Config{CacheBytes: 64 << 20, Fetch: testbed.LoopbackPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	// A warm edge answers from its cache: the wire then times the link,
	// not the edge's fills.
	for k := range chunks {
		for ti := range m.Chunks[k].Tiles {
			for l := range codec.NumLevels {
				e.Handler().ServeHTTP(httptest.NewRecorder(),
					httptest.NewRequest(http.MethodGet, server.TilePath(k, ti, codec.Level(l)), nil))
			}
		}
	}
	// The fault lands on chunk 1's tile 1: planned, with a tail behind it.
	inj := &injector{kind: fault}
	front := httptest.NewServer(inj.wrap(e.Handler(), "/video/1/1/"))
	defer front.Close()
	px := newDelayProxy(t, strings.TrimPrefix(front.URL, "http://"), rtt/2, bps)
	defer px.close()

	// Deadlines far beyond a loopback turn: only the injected fault fails.
	pol := client.FetchPolicy{Seed: 7, AttemptTimeout: 5 * time.Second, MinAttemptTimeout: 2 * time.Second}
	cl := client.New("http://" + px.addr())
	defer cl.HTTP.CloseIdleConnections()
	res, err := cl.Stream(context.Background(), f.traces[0], client.StreamConfig{
		Fetch: pol, MaxRateBps: testbed.RateCap(m), MaxChunks: chunks,
	})
	if err != nil {
		t.Fatal(err)
	}
	tiles := 0
	plans := make([]abr.Allocation, chunks)
	for _, cr := range res.Chunks {
		plans[cr.Chunk] = cr.Planned
		tiles += len(cr.Planned)
	}
	if len(res.Chunks) != chunks {
		t.Fatalf("streamed %d of %d chunks", len(res.Chunks), chunks)
	}
	wantRetries := 0
	if fault != "" {
		wantRetries = 1
		if !inj.fired.Load() {
			t.Fatal("the fault never fired")
		}
	}
	if res.TotalRetries != wantRetries {
		t.Fatalf("session retried %d times, want %d", res.TotalRetries, wantRetries)
	}

	// The wire: the pooled connection carries the manifest and every
	// request off the turns; every other connection carries turns.
	conns := px.log()
	var wireTurns, wireOff int
	perChunk := make([]int, chunks)
	for _, bursts := range conns {
		if len(bursts) > 0 && bursts[0][0] == "/manifest.json" {
			wireOff += len(bursts) - 1
			continue
		}
		for _, paths := range bursts {
			k, _, _, err := server.ParseTilePath(paths[0])
			if err != nil {
				t.Fatalf("turn starts with %q: %v", paths[0], err)
			}
			wireTurns++
			perChunk[k]++
		}
	}
	wantDials := 2 // the pooled connection and the session's pipeline
	if fault == "abort" {
		wantDials = 3 // the aborted pipeline's successor
	}
	if len(conns) != wantDials {
		t.Errorf("%d connections dialed, want %d", len(conns), wantDials)
	}
	for k, n := range perChunk {
		want := 1
		if fault == "abort" && k == 1 {
			want = 2
		}
		if n != want {
			t.Errorf("chunk %d went out as %d turns, want %d", k, n, want)
		}
	}
	if wireOff != wantRetries {
		t.Errorf("%d requests off the turns on the wire, want %d", wireOff, wantRetries)
	}

	// netem over the same plans, the same fault and the same link.
	flat := &nettrace.Trace{Mbps: make([]float64, 60)}
	for i := range flat.Mbps {
		flat.Mbps[i] = bps / 1e6
	}
	clk := client.NewVirtualClock(0)
	tp := &faultyNetem{netem: newNetem(m, clk,
		&nettrace.Link{Trace: flat, RTTSec: rtt.Seconds()}, chaos.Rule{}, 1, 1e4, &scratch{}), k: -1}
	switch fault {
	case "abort":
		tp.k, tp.ti, tp.rule = 1, 1, chaos.Rule{AbortRate: 1}
	case "500":
		tp.k, tp.ti, tp.rule = 1, 1, chaos.Rule{ErrorRate: 1}
	}
	vres, err := client.RunSession(context.Background(), tp, f.traces[0], client.StreamConfig{
		Planner: replayPlanner(plans), Fetch: pol, Clock: clk, MaxChunks: chunks,
	})
	if err != nil {
		t.Fatal(err)
	}
	if vres.TotalRetries != wantRetries {
		t.Fatalf("netem session retried %d times, want %d", vres.TotalRetries, wantRetries)
	}
	off := tp.Requests() - 1 - int64(tiles) // less the manifest and each tile's planned request
	if tp.TurnsOpened() != int64(wireTurns) || off != int64(wireOff) {
		t.Errorf("netem: %d turns and %d requests off them; the wire: %d and %d",
			tp.TurnsOpened(), off, wireTurns, wireOff)
	}
	for k, cr := range vres.Chunks {
		wire, model := res.Chunks[k].Download, cr.Download
		hi := wire + slack
		if fault == "500" && k == 1 {
			// The warm resume's bill: the tail's transfer, which the wire
			// overlapped with the retry.
			var tail float64
			for ti, l := range plans[1][2:] {
				tail += m.Chunks[1].Tiles[ti+2].Bits[l]
			}
			hi += time.Duration(tail / bps * float64(time.Second))
		}
		if model > hi {
			t.Errorf("chunk %d: netem fetched it in %v, the wire in %v (want at most %v later)", k, model, wire, hi-wire)
		}
		if model < wire-slack {
			late = append(late, fmt.Sprintf("chunk %d: netem fetched it in %v, the wire in %v (want at most %v earlier)",
				k, model, wire, slack))
		}
	}
	return late
}

// injector fails the first tile request whose path starts with a prefix:
// kind "abort" kills the connection before any response byte, as chaos's
// abort does; "500" answers 500 and keeps the connection; "" never fails.
type injector struct {
	kind  string
	fired atomic.Bool
}

func (in *injector) wrap(h http.Handler, prefix string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if in.kind != "" && strings.HasPrefix(r.URL.Path, prefix) && in.fired.CompareAndSwap(false, true) {
			if in.kind == "abort" {
				panic(http.ErrAbortHandler)
			}
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// faultyNetem is netem with the loopback's one fault: rule applies to
// the first request for tile ti of chunk k (k = -1: none).
type faultyNetem struct {
	*netem
	k, ti int
	rule  chaos.Rule
	fired bool
}

func (a *faultyNetem) Tile(ctx context.Context, k, ti int, l codec.Level) (float64, error) {
	if k == a.k && ti == a.ti && !a.fired {
		a.fired = true
		a.Fault = a.rule
		defer func() { a.Fault = chaos.Rule{} }()
	}
	return a.netem.Tile(ctx, k, ti, l)
}

// replayPlanner plans chunk k as plans[k].
type replayPlanner []abr.Allocation

func (replayPlanner) Name() string { return "replay" }

func (r replayPlanner) Plan(_ *manifest.Video, k int, _ player.ChunkView, _ float64) abr.Allocation {
	return r[k]
}

// delayProxy forwards each loopback connection to target, holding every
// byte half an RTT in each direction and passing the server's answers,
// of every connection, through one bottleneck of bps bits per second in
// the order they arrive. It logs the client's write bursts per
// connection: the GET paths of the bytes it sent since the server last
// spoke.
type delayProxy struct {
	ln     net.Listener
	target string
	half   time.Duration
	bps    float64
	wg     sync.WaitGroup
	mu     sync.Mutex
	conns  []*wireConn
	free   time.Time // when the bottleneck has sent what it holds
}

type wireConn struct {
	bursts [][]byte
	spoke  bool // the server has answered since the last burst began
}

func newDelayProxy(t *testing.T, target string, half time.Duration, bps float64) *delayProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	px := &delayProxy{ln: ln, target: target, half: half, bps: bps}
	px.wg.Add(1)
	go px.accept()
	return px
}

func (px *delayProxy) addr() string { return px.ln.Addr().String() }

func (px *delayProxy) accept() {
	defer px.wg.Done()
	for {
		c, err := px.ln.Accept()
		if err != nil {
			return
		}
		s, err := net.Dial("tcp", px.target)
		if err != nil {
			c.Close()
			continue
		}
		wc := &wireConn{spoke: true}
		px.mu.Lock()
		px.conns = append(px.conns, wc)
		px.mu.Unlock()
		px.wg.Add(2)
		go px.pump(c, s, func(b []byte) {
			px.mu.Lock()
			defer px.mu.Unlock()
			if wc.spoke {
				wc.bursts, wc.spoke = append(wc.bursts, nil), false
			}
			wc.bursts[len(wc.bursts)-1] = append(wc.bursts[len(wc.bursts)-1], b...)
		}, px.requests)
		go px.pump(s, c, func([]byte) {
			px.mu.Lock()
			wc.spoke = true
			px.mu.Unlock()
		}, px.answers)
	}
}

// segment is bytes on their way: they reach the far end half an RTT
// after at.
type segment struct {
	at time.Time
	b  []byte
}

// pump copies src to dst through a delay line of px.half: frame cuts
// src into segments, calling seen as each leaves src. pump closes both
// ends when src ends.
func (px *delayProxy) pump(src, dst net.Conn, seen func([]byte), frame func(io.Reader, func([]byte), chan<- segment)) {
	defer px.wg.Done()
	line := make(chan segment, 1024)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for seg := range line {
			time.Sleep(time.Until(seg.at.Add(px.half)))
			if _, err := dst.Write(seg.b); err != nil {
				return
			}
		}
	}()
	frame(src, seen, line)
	close(line)
	<-done
	src.Close()
	dst.Close()
}

// requests passes the client's bytes on as they come.
func (px *delayProxy) requests(src io.Reader, seen func([]byte), line chan<- segment) {
	buf := make([]byte, 64<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			b := append([]byte(nil), buf[:n]...)
			seen(b)
			line <- segment{time.Now(), b}
		}
		if err != nil {
			return
		}
	}
}

// answers passes the server's answers on one at a time, each once the
// bottleneck has sent its body: the link carries the bits netem counts,
// and the headers ride free, as netem counts them.
func (px *delayProxy) answers(src io.Reader, seen func([]byte), line chan<- segment) {
	br := bufio.NewReader(src)
	for {
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			return
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		var b bytes.Buffer
		resp.Write(&b)
		seen(b.Bytes())
		now := time.Now()
		px.mu.Lock()
		if px.free.Before(now) {
			px.free = now
		}
		px.free = px.free.Add(time.Duration(float64(8*len(body)) / px.bps * float64(time.Second)))
		at := px.free
		px.mu.Unlock()
		line <- segment{at, b.Bytes()}
	}
}

// log returns each connection's bursts as the GET paths they carried.
func (px *delayProxy) log() [][][]string {
	px.mu.Lock()
	defer px.mu.Unlock()
	out := make([][][]string, len(px.conns))
	for i, wc := range px.conns {
		for _, b := range wc.bursts {
			var paths []string
			br := bufio.NewReader(bytes.NewReader(b))
			for {
				req, err := http.ReadRequest(br)
				if err != nil {
					break
				}
				paths = append(paths, req.URL.Path)
				io.Copy(io.Discard, req.Body)
			}
			out[i] = append(out[i], paths)
		}
	}
	return out
}

func (px *delayProxy) close() {
	px.ln.Close()
	px.wg.Wait()
}
