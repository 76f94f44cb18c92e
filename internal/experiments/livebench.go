package experiments

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"pano/internal/client"
	"pano/internal/codec"
	"pano/internal/edge"
	"pano/internal/fleet"
	"pano/internal/live"
	"pano/internal/obs"
	"pano/internal/store"
	"pano/internal/testbed"
)

// LiveScenarioResult is one row of the live bench.
type LiveScenarioResult struct {
	Scenario string
	// Pipeline figures (publisher rows).
	Chunks         int
	DeadlineMisses int
	Degraded       int
	OnTimeFrac     float64
	// Session figures (HTTP rows).
	Sessions      int
	Aborted       int
	LostChunks    int // published chunks a session neither played nor skipped
	SkippedChunks int
	// Stateless-origin proof figures.
	TilesCompared int
	Mismatches    int
	// Wall-clock figures (excluded from the benchdiff gate).
	LiveLatencyMeanSec float64
	LiveLatencyMaxSec  float64
	MeanPublishMs      float64
	WallSec            float64
}

// LiveBenchResult is the BENCH_live.json payload: the just-in-time
// pipeline's publish ledger, the stateless-origin byte/ETag proof, and
// a live failover run where one of two store-backed origins is killed
// mid-feed while real clients ride the edge.
type LiveBenchResult struct {
	Rows []LiveScenarioResult
	// OnTimeFrac is the headline jit_pipeline publish punctuality.
	OnTimeFrac float64
}

const (
	// liveCaptureInterval compresses the feed clock: one chunk of the
	// 1 s-chunk video is captured per tick instead of per second.
	liveCaptureInterval = 10 * time.Millisecond
	liveFailoverClients = 4
)

// liveFeed returns a pipeline set to capture, encode, and publish the
// whole feed into a fresh store directory (caller runs it and removes
// the directory).
func liveFeed(d *Dataset, interval, deadline time.Duration) (*live.Pipeline, string, error) {
	idx := d.TracedIndices()[0]
	dir, err := os.MkdirTemp("", "pano-live-")
	if err != nil {
		return nil, "", err
	}
	s, err := store.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	p, err := live.New(live.Config{
		Video:           d.Video(idx),
		History:         d.Traces(idx),
		Store:           s,
		CaptureInterval: interval,
		Deadline:        deadline,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	return p, dir, nil
}

// liveRunFeed runs a whole feed to completion, returning its report and
// the directory it published into (caller removes it).
func liveRunFeed(d *Dataset, deadline time.Duration) (*live.Report, string, error) {
	p, dir, err := liveFeed(d, liveCaptureInterval, deadline)
	if err != nil {
		return nil, "", err
	}
	rep, err := p.Run(context.Background())
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	return rep, dir, nil
}

func livePipelineRow(scenario string, rep *live.Report) LiveScenarioResult {
	return LiveScenarioResult{
		Scenario:       scenario,
		Chunks:         rep.Chunks,
		DeadlineMisses: rep.DeadlineMisses,
		Degraded:       rep.Degraded,
		OnTimeFrac:     rep.OnTimeFrac(),
		MeanPublishMs:  float64(rep.MeanPublishLatency.Microseconds()) / 1000,
	}
}

// liveCompareOrigins opens two independent Store+Backend pairs over one
// published directory and compares every object both ways: manifest
// bytes + ETag, then every tile at every level. Returns (compared,
// mismatches).
func liveCompareOrigins(dir string) (int, int, error) {
	open := func() (*store.Backend, error) {
		s, err := store.Open(dir)
		if err != nil {
			return nil, err
		}
		return store.NewBackend(s)
	}
	b1, err := open()
	if err != nil {
		return 0, 0, err
	}
	b2, err := open()
	if err != nil {
		return 0, 0, err
	}
	compared, mismatches := 0, 0
	m, body1, etag1, err := b1.Manifest()
	if err != nil {
		return 0, 0, err
	}
	_, body2, etag2, err := b2.Manifest()
	if err != nil {
		return 0, 0, err
	}
	compared++
	if etag1 != etag2 || !bytes.Equal(body1, body2) {
		mismatches++
	}
	for k := 0; k < m.NumChunks(); k++ {
		for ti := range m.Chunks[k].Tiles {
			for l := 0; l < codec.NumLevels; l++ {
				lv := codec.Level(l)
				d1, err1 := b1.TileData(k, ti, lv)
				d2, err2 := b2.TileData(k, ti, lv)
				s1, _ := b1.TileStat(k, ti, lv)
				s2, _ := b2.TileStat(k, ti, lv)
				compared++
				if err1 != nil || err2 != nil || !bytes.Equal(d1, d2) || s1.ETag != s2.ETag {
					mismatches++
				}
			}
		}
	}
	return compared, mismatches, nil
}

// liveFailoverRow runs the full live stack and kills an origin in the
// thick of it: a JIT pipeline on an impossible deadline (every chunk
// publishes late and degraded), two stateless store origins over the
// shared directory, one caching edge fronting both with ring failover,
// and live client sessions following the edge. Origin 0 dies once half
// the feed is out; no session may abort and every published chunk must
// be played or deliberately skipped — never lost.
func liveFailoverRow(d *Dataset) (r LiveScenarioResult, _ error) {
	t0 := time.Now()
	// Every publish is "late": prove that never aborts a client.
	pipe, dir, err := liveFeed(d, 2*liveCaptureInterval, time.Nanosecond)
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	var rep *live.Report
	feedErr := make(chan error, 1)
	go func() {
		var err error
		rep, err = pipe.Run(context.Background())
		feedErr <- err
	}()

	// Two stateless origins over the publisher's directory (bring-up
	// waits for its first catalog) behind one caching edge. A short
	// base TTL keeps the cached live manifest close to the compressed
	// feed clock (the chunkSec/2 clamp assumes real time).
	tb := testbed.New()
	defer tb.Close()
	for i := 0; i < 2; i++ {
		if _, err := tb.AddOrigin(testbed.OriginConfig{StoreDir: dir}); err != nil {
			return r, err
		}
	}
	pol := testbed.LoopbackPolicy()
	pol.MaxBackoff = 5 * time.Millisecond
	e, err := tb.AddEdge(edge.Config{
		ProbeInterval: 25 * time.Millisecond,
		Breaker:       fleet.BreakerConfig{FailureThreshold: 2, OpenFor: 100 * time.Millisecond},
		CacheBytes:    32 << 20,
		TTL:           25 * time.Millisecond,
		Obs:           obs.NewRegistry(),
		Fetch:         pol,
	})
	if err != nil {
		return r, err
	}

	// Kill origin 0 once half the feed is published.
	killDone := make(chan struct{})
	go func() {
		defer close(killDone)
		half := d.Scale.DurationSec / 2
		deadline := time.Now().Add(10 * time.Second)
		for pipe.Edge() < half && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		tb.Origins[0].Kill()
	}()

	traces := d.Traces(d.TracedIndices()[0])
	results, aborted := testbed.Sessions(liveFailoverClients, 0, func(u int) (*client.StreamResult, error) {
		p := client.FetchPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond,
			MaxBackoff: 10 * time.Millisecond, AttemptTimeout: 2 * time.Second,
			MinAttemptTimeout: 20 * time.Millisecond, Seed: uint64(u + 1)}
		return tb.Client(e.URL).Stream(context.Background(), traces[u%len(traces)], client.StreamConfig{
			Fetch: p,
			Live: client.LivePolicy{
				PollInterval: 2 * time.Millisecond,
				// Sessions must never fall behind by policy in this row:
				// a skip would be indistinguishable from a lost chunk.
				MaxLatencyChunks: 1 << 10,
				EdgeTimeout:      10 * time.Second,
			},
		})
	})
	<-killDone
	if err := <-feedErr; err != nil {
		return r, err
	}

	final := pipe.Manifest()
	r = livePipelineRow("live_failover", rep)
	r.Sessions, r.Aborted = liveFailoverClients, aborted
	var latSum float64
	for _, out := range results {
		r.SkippedChunks += out.LiveSkippedChunks
		if lost := final.NumChunks() - (len(out.Chunks) + out.LiveSkippedChunks); lost > 0 {
			r.LostChunks += lost
		}
		latSum += out.LiveLatencyMeanSec
		if out.LiveLatencyMaxSec > r.LiveLatencyMaxSec {
			r.LiveLatencyMaxSec = out.LiveLatencyMaxSec
		}
	}
	if len(results) > 0 {
		r.LiveLatencyMeanSec = latSum / float64(len(results))
	}
	r.WallSec = time.Since(t0).Seconds()
	return r, nil
}

// LiveBench is the live-streaming bench. Row 1 (jit_pipeline) runs the
// just-in-time pipeline on a generous 1 s publish budget — the
// acceptance gate is ≥95% on-time publishes. Row 2 (jit_tight_deadline)
// makes the deadline impossible and proves the failure mode is graceful
// and total: every chunk publishes anyway, late and on the degraded
// rung. Row 3 (stateless_origins) opens two independent origins over
// row 1's directory and compares every object byte-for-byte and
// ETag-for-ETag. Row 4 (live_failover) runs the full HTTP stack — two
// store origins behind a failover edge, live clients at the moving
// edge — and kills an origin mid-feed: zero aborts, zero lost chunks.
func LiveBench(d *Dataset) (LiveBenchResult, *Table, error) {
	res := LiveBenchResult{}

	t0 := time.Now()
	rep, dir, err := liveRunFeed(d, time.Second)
	if err != nil {
		return res, nil, err
	}
	defer os.RemoveAll(dir)
	row := livePipelineRow("jit_pipeline", rep)
	row.WallSec = time.Since(t0).Seconds()
	res.Rows = append(res.Rows, row)
	res.OnTimeFrac = row.OnTimeFrac

	t0 = time.Now()
	rep2, dir2, err := liveRunFeed(d, time.Nanosecond)
	if err != nil {
		return res, nil, err
	}
	os.RemoveAll(dir2)
	row = livePipelineRow("jit_tight_deadline", rep2)
	row.WallSec = time.Since(t0).Seconds()
	res.Rows = append(res.Rows, row)

	t0 = time.Now()
	compared, mismatches, err := liveCompareOrigins(dir)
	if err != nil {
		return res, nil, err
	}
	res.Rows = append(res.Rows, LiveScenarioResult{
		Scenario: "stateless_origins", TilesCompared: compared,
		Mismatches: mismatches, WallSec: time.Since(t0).Seconds(),
	})

	frow, err := liveFailoverRow(d)
	if err != nil {
		return res, nil, err
	}
	res.Rows = append(res.Rows, frow)

	// lat_*, pub_ms, and wall_sec measure the machine (compressed feed
	// clock included), not the system — benchdiff -ignore's them.
	t := &Table{
		Title: fmt.Sprintf("Live streaming: JIT pipeline %.0f%% on time, %d/%d origin objects byte-identical, failover aborts %d, lost chunks %d",
			100*res.OnTimeFrac, compared-mismatches, compared, frow.Aborted, frow.LostChunks),
		Header: []string{"scenario", "chunks", "on_time", "misses", "degraded",
			"sessions", "aborted", "lost_chunks", "skipped",
			"tiles_cmp", "mismatch", "lat_mean_s", "lat_max_s", "pub_ms", "wall_sec"},
	}
	for _, r := range res.Rows {
		chunks, onTime, misses, degraded := "-", "-", "-", "-"
		sessions, aborted, lost, skipped := "-", "-", "-", "-"
		cmp, mism, latMean, latMax, pub := "-", "-", "-", "-", "-"
		if r.Chunks > 0 {
			chunks = fmt.Sprintf("%d", r.Chunks)
			onTime = f2(r.OnTimeFrac)
			misses = fmt.Sprintf("%d", r.DeadlineMisses)
			degraded = fmt.Sprintf("%d", r.Degraded)
			pub = f2(r.MeanPublishMs)
		}
		if r.Sessions > 0 {
			sessions = fmt.Sprintf("%d", r.Sessions)
			aborted = fmt.Sprintf("%d", r.Aborted)
			lost = fmt.Sprintf("%d", r.LostChunks)
			skipped = fmt.Sprintf("%d", r.SkippedChunks)
			latMean = f2(r.LiveLatencyMeanSec)
			latMax = f2(r.LiveLatencyMaxSec)
		}
		if r.TilesCompared > 0 {
			cmp = fmt.Sprintf("%d", r.TilesCompared)
			mism = fmt.Sprintf("%d", r.Mismatches)
		}
		t.Rows = append(t.Rows, []string{
			r.Scenario, chunks, onTime, misses, degraded,
			sessions, aborted, lost, skipped,
			cmp, mism, latMean, latMax, pub, f1(r.WallSec),
		})
	}
	return res, t, nil
}
