package swarm

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"pano/internal/chaos"
	"pano/internal/client"
	"pano/internal/manifest"
	"pano/internal/nettrace"
	"pano/internal/obs"
	"pano/internal/provider"
	"pano/internal/scene"
	"pano/internal/viewport"
)

type fixtureT struct {
	pano   *manifest.Video
	traces []*viewport.Trace
	bw     []*nettrace.Trace
}

var (
	fxOnce sync.Once
	fx     fixtureT
)

// fixture builds a small Pano-tiled video, a pool of synthetic head
// traces, and a pool of LTE-like bandwidth traces scaled to fractions
// of the top encoding rate.
func fixture(t testing.TB) *fixtureT {
	t.Helper()
	fxOnce.Do(func() {
		v := scene.Generate(scene.Sports, 23, scene.Options{W: 240, H: 120, FPS: 10, DurationSec: 8})
		var trs []*viewport.Trace
		for i := 0; i < 4; i++ {
			trs = append(trs, viewport.Synthesize(v, uint64(i+1), viewport.DefaultSynthesizeOpts()))
		}
		pano, err := provider.Preprocess(v, trs, provider.DefaultConfig())
		if err != nil {
			panic(err)
		}
		top := pano.ChunkBits(0, 0) / pano.ChunkSec / 1e6
		var bw []*nettrace.Trace
		for i, frac := range []float64{0.25, 0.4, 0.6} {
			bw = append(bw, nettrace.SynthesizeLTE(uint64(100+i), 120, frac*top))
		}
		fx = fixtureT{pano: pano, traces: trs, bw: bw}
	})
	return &fx
}

func baseConfig(f *fixtureT) Config {
	return Config{
		Manifest:         f.pano,
		Sessions:         64,
		Seed:             7,
		ArrivalWindowSec: 20,
		Viewports:        f.traces,
		Bandwidth:        f.bw,
	}
}

func TestRunProducesSaneSummary(t *testing.T) {
	f := fixture(t)
	cfg := baseConfig(f)
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Summary
	if s.Sessions != 64 || s.Completed != 64 || s.Errored != 0 {
		t.Fatalf("population counts: %+v", s)
	}
	wantChunks := int64(64 * f.pano.NumChunks())
	if s.Chunks != wantChunks {
		t.Errorf("chunks = %d, want %d", s.Chunks, wantChunks)
	}
	if s.Bytes <= 0 {
		t.Errorf("bytes = %d", s.Bytes)
	}
	if s.ScoredSessions != 64 {
		t.Errorf("scored = %d", s.ScoredSessions)
	}
	if s.MeanPSPNR <= 0 || s.MeanPSPNR > 100 {
		t.Errorf("mean PSPNR = %v", s.MeanPSPNR)
	}
	if s.P10PSPNR > s.P50PSPNR || s.P50PSPNR > s.P90PSPNR {
		t.Errorf("quantiles out of order: %v %v %v", s.P10PSPNR, s.P50PSPNR, s.P90PSPNR)
	}
	if s.PeakConcurrency < 1 || s.PeakConcurrency > 64 {
		t.Errorf("peak concurrency = %d", s.PeakConcurrency)
	}
	if s.MeanConcurrency <= 0 || s.MeanConcurrency > float64(s.PeakConcurrency) {
		t.Errorf("mean concurrency = %v (peak %d)", s.MeanConcurrency, s.PeakConcurrency)
	}
	if s.VirtualSec <= cfg.ArrivalWindowSec {
		t.Errorf("virtual_sec = %v, want > arrival window", s.VirtualSec)
	}
	// Every session fetches the manifest plus at least one object per
	// chunk.
	if s.OriginRequests < wantChunks+64 {
		t.Errorf("origin requests = %d", s.OriginRequests)
	}
	if s.OriginPeakRPS <= 0 || s.OriginMeanRPS <= 0 {
		t.Errorf("origin rps: peak %d mean %v", s.OriginPeakRPS, s.OriginMeanRPS)
	}
	if rep.WallSec <= 0 || rep.SessionsPerWallSec <= 0 {
		t.Errorf("wall accounting: %v %v", rep.WallSec, rep.SessionsPerWallSec)
	}
}

// benchmarkShape is a fleet-mode population under the swarm_population
// benchmark's fault rule, outage shape and hedge delay.
func benchmarkShape(f *fixtureT) Config {
	cfg := fleetConfig(f)
	cfg.ArrivalWindowSec = 30
	cfg.Fault = chaos.Rule{
		ErrorRate: 0.02, TruncateRate: 0.01,
		Latency: 20 * time.Millisecond, Jitter: 10 * time.Millisecond,
	}
	cfg.Fleet.Outages = []chaos.Down{{}, {After: 20 * time.Second, For: 30 * time.Second}}
	cfg.ScoreEvery = 10
	cfg.Fetch.HedgeDelay = 150 * time.Millisecond
	return cfg
}

// TestSwarmConservesBytesAndChunks: in a seeded population of the
// benchmark's shape, every completed session streamed each of its
// manifest's chunks once, a chunk's bytes are its fetched tiles' sizes
// at the levels delivered (a stale tile moved none), a session's total is
// the sum over its chunks, and the Summary's bytes are the sum over the
// completed sessions.
func TestSwarmConservesBytesAndChunks(t *testing.T) {
	f := fixture(t)
	cfg := benchmarkShape(f)
	cfg.Sessions = 400
	rep, results := runKeeping(t, cfg, linkRTTSec)
	var completed int
	var total int64
	for id, res := range results {
		if res == nil {
			continue
		}
		completed++
		m := res.Manifest
		if want := m.NumChunks() - m.FirstChunk; len(res.Chunks) != want {
			t.Fatalf("session %d streamed %d chunks, want %d", id, len(res.Chunks), want)
		}
		sum := 0
		for _, cr := range res.Chunks {
			bytes := 0
			for ti, l := range cr.Levels {
				if cr.Stale == nil || !cr.Stale[ti] {
					bytes += int(m.Chunks[cr.Chunk].Tiles[ti].Bits[l]) / 8
				}
			}
			if cr.Bytes != bytes {
				t.Fatalf("session %d chunk %d: %d bytes, its tiles at the levels delivered hold %d", id, cr.Chunk, cr.Bytes, bytes)
			}
			sum += cr.Bytes
		}
		if res.TotalBytes != sum {
			t.Fatalf("session %d: TotalBytes %d, its chunks hold %d", id, res.TotalBytes, sum)
		}
		total += int64(res.TotalBytes)
	}
	if s := rep.Summary; completed != s.Completed || completed == 0 || s.Bytes != total {
		t.Fatalf("summary: %d completed with %d bytes; the retained sessions: %d with %d", s.Completed, s.Bytes, completed, total)
	}
}

func TestScoreEverySamples(t *testing.T) {
	f := fixture(t)
	cfg := baseConfig(f)
	cfg.ScoreEvery = 4
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.ScoredSessions != 16 {
		t.Errorf("scored = %d, want 16", rep.Summary.ScoredSessions)
	}
	if rep.Summary.MeanPSPNR <= 0 {
		t.Errorf("sampled mean PSPNR = %v", rep.Summary.MeanPSPNR)
	}
}

func TestFaultsSurfaceInSummary(t *testing.T) {
	f := fixture(t)
	cfg := baseConfig(f)
	cfg.Fault = chaos.Rule{ErrorRate: 0.3, AbortRate: 0.1}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.Retries == 0 {
		t.Errorf("30%% 500s + 10%% aborts produced zero retries")
	}
	// A fault-free run fails no request of an injected class. At the
	// default deadlines it does retry: a tile larger than half the buffer
	// outlasts its attempt deadline. Its sessions, replayed with a
	// registry, retry as often as the run does, every time on a timeout.
	clean := baseConfig(f)
	rep, err = Run(context.Background(), clean)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rc := clean
	if err := rc.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	replayed := 0
	for id := range rc.Sessions {
		p := sessionParams(&rc, id)
		tp, sc := newSession(&rc, linkRTTSec, p, float64(8*rc.Manifest.WireLen()), nil, &scratch{})
		sc.Obs = reg
		res, err := client.RunSession(context.Background(), tp, rc.Viewports[p.vp], sc)
		if err != nil {
			t.Fatal(err)
		}
		replayed += res.TotalRetries
	}
	if replayed != int(rep.Summary.Retries) {
		t.Fatalf("replayed sessions retried %d times, the run %d", replayed, rep.Summary.Retries)
	}
	for _, class := range []string{"http_5xx", "conn_reset", "truncated"} {
		if n := reg.CounterValue("pano_client_tile_retries_total", obs.L("class", class)); n != 0 {
			t.Errorf("fault-free run retried %v times on %s", n, class)
		}
	}
	if timeouts, all := reg.CounterValue("pano_client_tile_retries_total", obs.L("class", "timeout")),
		reg.CounterSum("pano_client_tile_retries_total"); timeouts != all || all != float64(replayed) {
		t.Errorf("fault-free run: %v retries on timeouts of %v (%d in the results)", timeouts, all, replayed)
	}
	// With the deadlines out of reach it records none.
	clean.Fetch = client.FetchPolicy{AttemptTimeout: time.Hour, MinAttemptTimeout: time.Hour}
	rep, err = Run(context.Background(), clean)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.Retries != 0 {
		t.Errorf("fault-free run without deadlines recorded %d retries", rep.Summary.Retries)
	}
}

func TestObsAggregation(t *testing.T) {
	f := fixture(t)
	cfg := baseConfig(f)
	cfg.Sessions = 16
	cfg.Obs = obs.NewRegistry()
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := cfg.Obs.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`pano_swarm_sessions_total{status="ok"} 16`,
		"pano_swarm_chunks_total",
		"pano_swarm_session_pspnr_db_bucket",
		"pano_swarm_peak_concurrency",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	_ = rep
}

func TestCanceledContext(t *testing.T) {
	f := fixture(t)
	cfg := baseConfig(f)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.Completed != 0 {
		t.Errorf("canceled run completed %d sessions", rep.Summary.Completed)
	}
}

func TestConfigValidation(t *testing.T) {
	f := fixture(t)
	cases := []func(*Config){
		func(c *Config) { c.Manifest = nil },
		func(c *Config) { c.Sessions = 0 },
		func(c *Config) { c.Viewports = nil },
		func(c *Config) { c.Bandwidth = nil },
	}
	for i, mod := range cases {
		cfg := baseConfig(f)
		mod(&cfg)
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("case %d: no error", i)
		}
	}
}

// runKeeping runs cfg over links of rtt seconds and returns each
// completed session's result by session id (nil where it failed).
func runKeeping(t *testing.T, cfg Config, rtt float64) (*Report, []*client.StreamResult) {
	t.Helper()
	results := make([]*client.StreamResult, cfg.Sessions)
	rep, err := run(context.Background(), cfg, runOpts{rttSec: rtt, keep: func(id int, res *client.StreamResult) {
		results[id] = res
	}})
	if err != nil {
		t.Fatal(err)
	}
	return rep, results
}
