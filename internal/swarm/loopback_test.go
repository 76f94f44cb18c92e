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
	"pano/internal/fleet"
	"pano/internal/graceful"
	"pano/internal/manifest"
	"pano/internal/nettrace"
	"pano/internal/player"
	"pano/internal/server"
	"pano/internal/testbed"
)

// TestTurnsMatchLoopback is netem's ground truth. One seeded session
// streams over loopback h2c through a warm edge, behind a proxy that holds
// each direction RTT/2 (chaos latency cannot stand in for the RTT: netem
// charges server delays in series) and carries the server's frames
// through one bottleneck of the link's rate. The wire is counted from
// the 9-byte h2 frame headers alone — connections dialed, and the
// requests (HEADERS frames) of each write burst: the client's bytes
// since the server last spoke, each one round trip — and each chunk's
// fetch is timed. The whole session rides one connection, and every
// chunk is exactly one turn carrying all of its planned requests. One
// abort or one 500, injected at a planned request with a tail behind it,
// adds one request off the turns (the retry) and nothing else: the
// server resets that stream alone, or answers it, and the tail's answers,
// already on the way, are read after the retry (netem's warm resume).
// netem, fed the same plans, the same fault and the same link, opens as
// many turns, sends as many requests off them, and takes as long per
// chunk, within slack — except after the fault, where it may take
// longer by up to the tail's transfer: a warm resume charges the tail's
// bits from when the turn resumes, and the wire delivered them during
// the retry's backoff and round trip. Connection set-up is charged on
// neither side: the proxy hands a connection over at once.
//
// The fleet case puts a cold caching edge in front of two origins that
// each delay a tile 5 ms, the first killed before the session: the edge
// fills every miss by walking fleet.Ladder, failing over to the live
// origin. netem's fleet twin, with the same delay, the first shard always
// down and the edge's fetch policy and breaker, walks the same ladder
// behind the front. Both sides open one turn per chunk and send nothing
// off the turns; the live origin serves every tile, and the twin fails
// over. The edge keeps the default retry budget and does not hedge: the
// wire's first turn has all of its fills in flight to the dead origin
// when the breaker trips, and those that fail after it fail over free
// (fleet.Ladder's policy 2), so the wire, like the twin's serial walks,
// pays only for the two that trip it. netem may take longer per chunk
// by up to the turn's summed origin delays: it charges a turn's server
// delays and its transfer in series (the serial rule every turn has),
// and the wire overlaps the edge's concurrent fills with each other and
// with the answers on the way.
//
// A busy machine only ever makes the wire slower (the proxy's timers
// and the client run late), so a session on which netem ran ahead of
// the wire by more than the slack is streamed again, up to three times;
// the counts, and netem never running behind by more than its bound,
// must hold every time.
func TestTurnsMatchLoopback(t *testing.T) {
	for _, tc := range []struct {
		name, fault string
		fleet       bool
	}{{"fault-free", "", false}, {"one-abort", "abort", false}, {"one-500", "500", false}, {"fleet", "", true}} {
		t.Run(tc.name, func(t *testing.T) {
			for try := 1; ; try++ {
				late := turnsMatchLoopback(t, tc.fault, tc.fleet)
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
// chunks on which the wire was. With fleet, the edge is cold and fronts
// two delayed origins, the first dead.
func turnsMatchLoopback(t *testing.T, fault string, withFleet bool) (late []string) {
	const (
		rtt = 100 * time.Millisecond
		// slack is what loopback adds to a chunk that netem does not
		// model: the edge's fills and the proxy's scheduling.
		slack = 40 * time.Millisecond
		// chunks streamed: the fault lands on the second.
		chunks = 4
		// delay is each fleet origin's tile delay.
		delay = 5 * time.Millisecond
	)
	f := fixture(t)
	m := f.pano
	// A chunk at the session's rate cap crosses the link in a tenth of a
	// chunk, a few RTTs: bits and round trips both show in its time.
	bps := 10 * testbed.RateCap(m)
	tb := testbed.New()
	defer tb.Close()
	ecfg := edge.Config{CacheBytes: 64 << 20, Fetch: testbed.LoopbackPolicy()}
	fc := &FleetConfig{Origins: 2, Outages: []chaos.Down{{Always: true}},
		Breaker: fleet.BreakerConfig{FailureThreshold: 2, OpenFor: time.Minute}} // open for the whole session once tripped
	// The fleet's origins delay every tile (rule, netem's too), and its
	// edge stays cold: the edge's fills are what that case times.
	origins, warm := 1, chunks
	var rule chaos.Rule
	if withFleet {
		origins, warm, ecfg.Breaker, rule.Latency = fc.Origins, 0, fc.Breaker, delay
		// The twin's dead shard resets at once and never draws a hedge.
		// On a loaded machine the wire's dead origin can take past the
		// adaptive hedge delay's 10 ms floor to reset, and a turn's fills
		// in flight to it would all hedge, spending the retry budget the
		// failovers of the two failures that trip its breaker then find
		// dry: the budget's bound at work, not what this case times.
		ecfg.Fetch.HedgeDelay = -1
	}
	for range origins {
		if _, err := tb.AddOrigin(testbed.OriginConfig{Manifest: m, Chaos: chaos.New(chaos.Profile{Tile: rule})}); err != nil {
			t.Fatal(err)
		}
	}
	if withFleet {
		tb.Origins[0].Kill()
	}
	e, err := tb.AddEdge(ecfg)
	if err != nil {
		t.Fatal(err)
	}
	// A warm edge answers from its cache: the wire then times the link,
	// not the edge's fills.
	for k := range warm {
		for ti := range m.Chunks[k].Tiles {
			for l := range codec.NumLevels {
				e.Handler().ServeHTTP(httptest.NewRecorder(),
					httptest.NewRequest(http.MethodGet, server.TilePath(k, ti, codec.Level(l)), nil))
			}
		}
	}
	// The fault lands on chunk 1's tile 1: planned, with a tail behind it.
	inj := &injector{kind: fault}
	front := httptest.NewUnstartedServer(inj.wrap(e.Handler(), "/video/1/1/"))
	front.Config.Protocols = graceful.Protocols()
	front.Start()
	defer front.Close()
	px := newDelayProxy(t, strings.TrimPrefix(front.URL, "http://"), rtt/2, bps)
	defer px.close()

	// Deadlines far beyond a loopback turn: only the injected fault fails.
	pol := client.FetchPolicy{Seed: 7, AttemptTimeout: 5 * time.Second, MinAttemptTimeout: 2 * time.Second}
	cl := client.NewH2C("http://" + px.addr())
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

	// The wire: a burst of several requests is a turn, each of the others
	// one request off the turns, the first of them the manifest.
	conns := px.log()
	if len(conns) != 1 {
		t.Errorf("%d connections dialed, want 1", len(conns))
	}
	var turnReqs []int
	wireOff := -1 // less the manifest
	for _, bursts := range conns {
		for _, n := range bursts {
			if n > 1 {
				turnReqs = append(turnReqs, n)
			} else {
				wireOff += n
			}
		}
	}
	wireTurns := len(turnReqs)
	if wireTurns != chunks {
		t.Errorf("%d turns on the wire, want one per chunk (%d)", wireTurns, chunks)
	}
	for k, n := range turnReqs[:min(wireTurns, chunks)] {
		if n != len(plans[k]) {
			t.Errorf("turn %d carried %d requests, want chunk %d's %d planned", k, n, k, len(plans[k]))
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
		&nettrace.Link{Trace: flat, RTTSec: rtt.Seconds()}, rule, 1, 1e4, &scratch{}), k: -1}
	if withFleet {
		tp.fleet = newFleetSim(fc, newPlacement(m, fc), 1, ecfg.Fetch)
	}
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
	if withFleet {
		if n := tb.Origins[1].TileRequests(); n != int64(tiles) {
			t.Errorf("the live origin served %d tile requests, want %d", n, tiles)
		}
		if n := tp.fleet.reqs[1] - 1; n != int64(tiles) { // less the manifest
			t.Errorf("netem's live shard served %d tile requests, want %d", n, tiles)
		}
		if tp.fleet.failovers == 0 {
			t.Error("netem's walks never failed over from the dead shard")
		}
		if tp.fleet.budgetDenied != 0 {
			t.Errorf("netem's retry budget went dry %d times", tp.fleet.budgetDenied)
		}
	}
	for k, cr := range vres.Chunks {
		wire, model := res.Chunks[k].Download, cr.Download
		hi := wire + slack
		if fault != "" && k == 1 {
			// The warm resume's bill: the tail's transfer, which the wire
			// overlapped with the retry.
			var tail float64
			for ti, l := range plans[1][2:] {
				tail += m.Chunks[1].Tiles[ti+2].Bits[l]
			}
			hi += time.Duration(tail / bps * float64(time.Second))
		}
		if withFleet {
			// The turn's server delays, charged in series with its transfer.
			hi += time.Duration(len(plans[k])) * delay
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
// kind "abort" resets it before any response byte, as chaos's abort does
// (over h2c, its stream alone); "500" answers 500; "" never fails.
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
// byte half an RTT in each direction and passing the server's h2 frames,
// of every connection, through one bottleneck of bps bits per second in
// the order they arrive. It logs the client's write bursts per
// connection: the bytes it sent since the server last spoke.
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

// h2 frame types, as the frame header's fourth byte carries them, and
// the preface a client opens its connection with.
const (
	h2Data    = 0x0
	h2Headers = 0x1
	h2Preface = "PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n"
)

// answers passes the server's h2 frames on one at a time, a DATA frame
// once the bottleneck has sent its payload: the link carries the bits
// netem counts, and every other frame — the answers' headers among
// them — rides free behind what the bottleneck holds, as netem counts
// it.
func (px *delayProxy) answers(src io.Reader, seen func([]byte), line chan<- segment) {
	br := bufio.NewReader(src)
	for {
		b := make([]byte, 9)
		if _, err := io.ReadFull(br, b); err != nil {
			return
		}
		n := int(b[0])<<16 | int(b[1])<<8 | int(b[2])
		b = append(b, make([]byte, n)...)
		if _, err := io.ReadFull(br, b[9:]); err != nil {
			return
		}
		seen(b)
		now := time.Now()
		px.mu.Lock()
		if px.free.Before(now) {
			px.free = now
		}
		if b[3] == h2Data {
			px.free = px.free.Add(time.Duration(float64(8*n) / px.bps * float64(time.Second)))
		}
		at := px.free
		px.mu.Unlock()
		line <- segment{at, b}
	}
}

// log returns each connection's write bursts as the requests — HEADERS
// frames — each carried, read from the 9-byte frame headers alone (no
// HPACK decode); bursts of other frames alone are left out.
func (px *delayProxy) log() [][]int {
	px.mu.Lock()
	defer px.mu.Unlock()
	out := make([][]int, len(px.conns))
	for i, wc := range px.conns {
		var wire []byte
		ends := make([]int, len(wc.bursts))
		for bi, b := range wc.bursts {
			wire = append(wire, b...)
			ends[bi] = len(wire)
		}
		counts := make([]int, len(wc.bursts))
		off := len(h2Preface)
		if !bytes.HasPrefix(wire, []byte(h2Preface)) {
			off = len(wire) // not h2: nothing to count
		}
		for bi := 0; off+9 <= len(wire); off += 9 + (int(wire[off])<<16 | int(wire[off+1])<<8 | int(wire[off+2])) {
			for off >= ends[bi] {
				bi++
			}
			if wire[off+3] == h2Headers {
				counts[bi]++
			}
		}
		for _, n := range counts {
			if n > 0 {
				out[i] = append(out[i], n)
			}
		}
	}
	return out
}

func (px *delayProxy) close() {
	px.ln.Close()
	px.wg.Wait()
}
