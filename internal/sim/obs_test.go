package sim

import (
	"context"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"pano/internal/abr"
	"pano/internal/client"
	"pano/internal/codec"
	"pano/internal/nettrace"
	"pano/internal/obs"
	"pano/internal/player"
	"pano/internal/trace"
)

// TestRunRecordsQoEMetrics asserts the registry agrees with the run's
// own Result: the ground-truth PSPNR series only the simulator can
// compute, and the session loop's own chunk, rebuffer, and byte
// counters (a simulated session emits them like any other).
func TestRunRecordsQoEMetrics(t *testing.T) {
	f := fixture(t)
	reg := obs.NewRegistry()
	el := obs.NewEventLog(nil, 256)
	cfg := DefaultConfig()
	cfg.Obs = reg
	cfg.Log = el
	res, err := Run(f.pano, f.traces[0], testLink(f, 0.35), player.NewPanoPlanner(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	n := len(res.PerChunkPSPNR)
	if got := reg.HistogramCount("pano_sim_chunk_pspnr_db"); got != uint64(n) {
		t.Errorf("pspnr observations %d, want %d", got, n)
	}
	var sum float64
	for _, p := range res.PerChunkPSPNR {
		sum += p
	}
	if got := reg.HistogramSum("pano_sim_chunk_pspnr_db"); math.Abs(got-sum) > 1e-6 {
		t.Errorf("pspnr sum %v, result per-chunk sum %v", got, sum)
	}
	if got := reg.CounterValue("pano_client_chunks_total"); got != float64(n) {
		t.Errorf("chunks counter %v, want %d", got, n)
	}
	if got := reg.CounterValue("pano_client_rebuffer_seconds_total"); math.Abs(got-res.StallSec) > 1e-9 {
		t.Errorf("rebuffer counter %v, result StallSec %v", got, res.StallSec)
	}
	// Bytes truncate per tile, so the counter trails TotalBits by under
	// a byte per tile.
	tiles := float64(n * len(f.pano.Chunks[0].Tiles))
	if got := 8 * reg.CounterValue("pano_client_bytes_total"); got > res.TotalBits || got < res.TotalBits-8*tiles {
		t.Errorf("bytes counter holds %v bits, result TotalBits %v", got, res.TotalBits)
	}
	if got := reg.GaugeValue("pano_sim_session_pspnr_db"); math.Abs(got-res.MeanPSPNR) > 1e-9 {
		t.Errorf("session pspnr gauge %v, result %v", got, res.MeanPSPNR)
	}
	if got := reg.GaugeValue("pano_sim_session_mos"); got != float64(res.MOS()) {
		t.Errorf("session mos gauge %v, result %d", got, res.MOS())
	}
	// ABR + planner instrumentation rode along.
	if got := reg.HistogramCount("pano_abr_decision_seconds"); got == 0 {
		t.Error("no ABR decision latency recorded")
	}
	if got := reg.HistogramCount("pano_planner_plan_seconds", obs.L("planner", "pano")); got != uint64(n) {
		t.Errorf("planner latency observations %d, want %d", got, n)
	}
	if got := reg.HistogramCount("pano_abr_bw_prediction_error_ratio"); got == 0 {
		t.Error("no bandwidth prediction error recorded")
	}

	// The loop's session summary fired, and the closing session_scored
	// event carries the result's ground-truth QoE.
	e, ok := el.Last("session_summary")
	if !ok {
		t.Fatal("no session_summary event")
	}
	if e.Str("status") != "ok" {
		t.Errorf("summary status %q", e.Str("status"))
	}
	e, ok = el.Last("session_scored")
	if !ok {
		t.Fatal("no session_scored event")
	}
	if got := e.Attr("mean_pspnr_db").(float64); math.Abs(got-res.MeanPSPNR) > 1e-9 {
		t.Errorf("scored pspnr %v, result %v", got, res.MeanPSPNR)
	}

	// And the whole registry renders as valid exposition text.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "pano_sim_chunk_pspnr_db_bucket") {
		t.Error("exposition missing sim histogram")
	}
}

// TestRunNopRegistryUnchanged pins that an uninstrumented run produces
// the identical Result — observability must not perturb the simulation.
func TestRunNopRegistryUnchanged(t *testing.T) {
	f := fixture(t)
	plain, err := Run(f.pano, f.traces[1], testLink(f, 0.35), player.NewPanoPlanner(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Obs = obs.NewRegistry()
	cfg.Log = obs.NewEventLog(nil, 16)
	instr, err := Run(f.pano, f.traces[1], testLink(f, 0.35), player.NewPanoPlanner(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.MeanPSPNR != instr.MeanPSPNR || plain.StallSec != instr.StallSec ||
		plain.TotalBits != instr.TotalBits {
		t.Errorf("instrumentation changed the result: %+v vs %+v", plain, instr)
	}
}

// recordingController is the session's MPC with its picks counted by
// level, so a test can hold the decision counter to them.
type recordingController struct {
	abr.Controller
	picks [codec.NumLevels]int
}

func (c *recordingController) PickLevel(bufferSec, predBWbps, chunkSec float64, prev codec.Level, horizon []abr.ChunkPlan) codec.Level {
	lv := c.Controller.PickLevel(bufferSec, predBWbps, chunkSec, prev, horizon)
	c.picks[lv]++
	return lv
}

// runVirtual runs one client session of the fixture's Pano manifest
// over the emulated link in virtual time, with sim.Run's session
// parameters and whatever cfg adds.
func runVirtual(t *testing.T, link *nettrace.Link, cfg client.StreamConfig) *client.StreamResult {
	t.Helper()
	f := fixture(t)
	clk := client.NewVirtualClock(0)
	run := StreamConfig(0)
	cfg.BufferTargetSec, cfg.MaxBufferSec, cfg.Clock = run.BufferTargetSec, run.MaxBufferSec, clk
	cfg.Fetch = client.FetchPolicy{AttemptTimeout: time.Hour, MinAttemptTimeout: time.Hour}
	res, err := client.RunSession(context.Background(), &client.VirtualNet{Video: f.pano, Clock: clk, Link: link},
		f.traces[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chunks) != f.pano.NumChunks() {
		t.Fatalf("streamed %d of %d chunks", len(res.Chunks), f.pano.NumChunks())
	}
	return res
}

// replayPredictions replays the session's harmonic-mean predictions
// from the throughputs its chunks measured: the number of chunks that
// had a prediction above 0 before they were decided, the largest such
// prediction, and Σ|pred−thr|/thr over the chunks that then measured a
// throughput.
func replayPredictions(res *client.StreamResult) (decided int, maxPred float64, errCount int, errSum float64) {
	bw := abr.NewBandwidthPredictor()
	for _, cr := range res.Chunks {
		pred := bw.Predict()
		if pred > 0 {
			decided++
			maxPred = math.Max(maxPred, pred)
		}
		if cr.Throughput > 0 {
			if pred > 0 {
				errCount++
				errSum += math.Abs(pred-cr.Throughput) / cr.Throughput
			}
			bw.Observe(cr.Throughput)
		}
	}
	return decided, maxPred, errCount, errSum
}

// TestSessionRecordsItsDecisions holds the loop's decision instruments
// to what the session did: each level's decision counter is the MPC's
// picks at that level, one per chunk that had a prediction; the
// bandwidth-error histogram is the replayed raw predictions' error,
// under a MaxRateBps cap that binds (so a capped prediction recorded
// in place of the raw one would show); and the planner ran once per
// chunk.
func TestSessionRecordsItsDecisions(t *testing.T) {
	f := fixture(t)
	link := testLink(f, 0.35)
	_, uncapped, _, _ := replayPredictions(runVirtual(t, link, client.StreamConfig{}))
	limit := 0.8 * uncapped

	reg := obs.NewRegistry()
	ctl := &recordingController{Controller: abr.NewMPC(2)}
	res := runVirtual(t, link, client.StreamConfig{Obs: reg, Controller: ctl, MaxRateBps: limit})
	decided, maxPred, errCount, errSum := replayPredictions(res)
	if maxPred <= limit || errCount < 3 {
		t.Fatalf("vacuous session: max prediction %v under the %v cap, %d prediction errors", maxPred, limit, errCount)
	}
	total := 0
	for l, n := range ctl.picks {
		total += n
		if got := reg.CounterValue("pano_abr_level_decisions_total", obs.L("level", "L"+strconv.Itoa(l))); got != float64(n) {
			t.Errorf("level L%d: counter %v, MPC picked it %d times", l, got, n)
		}
	}
	if total != decided {
		t.Errorf("MPC decided %d chunks, %d had a prediction above 0", total, decided)
	}
	if got := reg.HistogramCount("pano_abr_decision_seconds"); got != uint64(decided) {
		t.Errorf("decision latency observations %d, want %d", got, decided)
	}
	if got := reg.HistogramCount("pano_abr_bw_prediction_error_ratio"); got != uint64(errCount) {
		t.Errorf("prediction error observations %d, want %d", got, errCount)
	}
	if got := reg.HistogramSum("pano_abr_bw_prediction_error_ratio"); math.Abs(got-errSum) > 1e-9*errSum {
		t.Errorf("prediction error sum %v, replayed raw predictions give %v", got, errSum)
	}
	if got := reg.CounterValue("pano_planner_plans_total", obs.L("planner", "pano")); got != float64(len(res.Chunks)) {
		t.Errorf("planner calls %v, want %d", got, len(res.Chunks))
	}
}

// TestBOLASessionWatchesItsDecisions: the loop instruments whichever
// controller the session runs, so a BOLA session shows one "mpc" span
// per decision, under its chunk's span, and records its decision
// latency and levels like the MPC's.
func TestBOLASessionWatchesItsDecisions(t *testing.T) {
	f := fixture(t)
	reg := obs.NewRegistry()
	tracer := trace.New(trace.Config{Seed: 5})
	ctl := &recordingController{Controller: abr.NewBOLA(3)}
	res := runVirtual(t, testLink(f, 0.35), client.StreamConfig{Obs: reg, Trace: tracer, Controller: ctl})
	decided, _, _, _ := replayPredictions(res)
	if decided < len(res.Chunks)-1 {
		t.Fatalf("%d of %d chunks decided", decided, len(res.Chunks))
	}
	var td *trace.TraceData
	for _, tr := range tracer.Traces() {
		if tr.ID.String() == res.TraceID {
			td = tr
		}
	}
	if td == nil {
		t.Fatalf("session trace %q not stored", res.TraceID)
	}
	byID := map[trace.SpanID]*trace.SpanData{}
	for i := range td.Spans {
		byID[td.Spans[i].ID] = &td.Spans[i]
	}
	spans := td.Find("mpc")
	if len(spans) != decided {
		t.Errorf("%d mpc spans, %d decisions", len(spans), decided)
	}
	for _, sp := range spans {
		if p := byID[sp.Parent]; p == nil || p.Name != "chunk" {
			t.Errorf("mpc span's parent is %+v, want a chunk span", p)
		}
		if sp.Attr("level") == nil || sp.Attr("horizon") == nil || sp.Attr("pred_bps") == nil {
			t.Errorf("mpc span attributes %+v", sp.Attrs)
		}
	}
	if got := reg.HistogramCount("pano_abr_decision_seconds"); got != uint64(decided) {
		t.Errorf("BOLA decision latency observations %d, want %d", got, decided)
	}
	for l, n := range ctl.picks {
		if got := reg.CounterValue("pano_abr_level_decisions_total", obs.L("level", "L"+strconv.Itoa(l))); got != float64(n) {
			t.Errorf("level L%d: counter %v, BOLA picked it %d times", l, got, n)
		}
	}
}

// TestTracedChunkSpans pins what a fault-free traced session records:
// per chunk, the chunk span and its phases — estimate, mpc (absent on
// chunk 0, whose level is the cold start's), assign, fetch, stitch and
// the scorer's score — and no span per tile, since a tile whose first
// attempt succeeds has nothing to record beyond the fetch span's
// attributes. The session span is the one span outside the chunks.
func TestTracedChunkSpans(t *testing.T) {
	f := fixture(t)
	cfg := DefaultConfig()
	cfg.Trace = trace.New(trace.Config{Seed: 3})
	res, err := Run(f.pano, f.traces[0], testLink(f, Trace1Frac), player.NewPanoPlanner(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DegradedTiles != 0 || res.SkippedTiles != 0 {
		t.Fatalf("session not fault-free: %d degraded, %d skipped tiles", res.DegradedTiles, res.SkippedTiles)
	}
	var td *trace.TraceData
	for _, x := range cfg.Trace.Traces() {
		if x.ID.String() == res.TraceID {
			td = x
		}
	}
	if td == nil {
		t.Fatalf("trace %q not stored", res.TraceID)
	}
	byID := map[trace.SpanID]*trace.SpanData{}
	for i := range td.Spans {
		byID[td.Spans[i].ID] = &td.Spans[i]
	}
	perChunk := map[int][]string{}
	for i := range td.Spans {
		sd := &td.Spans[i]
		if sd.Name == "session" {
			continue
		}
		c := sd
		for c != nil && c.Name != "chunk" {
			c = byID[c.Parent]
		}
		if c == nil {
			t.Fatalf("%q span outside every chunk", sd.Name)
		}
		k := c.Attr("chunk").(int)
		perChunk[k] = append(perChunk[k], sd.Name)
	}
	n := f.pano.NumChunks()
	if len(perChunk) != n {
		t.Fatalf("spans under %d chunks, want %d", len(perChunk), n)
	}
	for k, names := range perChunk {
		want := []string{"assign", "chunk", "estimate", "fetch", "mpc", "score", "stitch"}
		if k == 0 {
			want = slices.DeleteFunc(want, func(s string) bool { return s == "mpc" })
		}
		slices.Sort(names)
		if !slices.Equal(names, want) {
			t.Errorf("chunk %d spans %v, want %v", k, names, want)
		}
	}
	// The session span, seven per chunk, and chunk 0 without its mpc.
	if got, want := len(td.Spans), 7*n; got != want {
		t.Errorf("%d spans in the session, want %d", got, want)
	}
	for _, sd := range td.Find("fetch") {
		for _, key := range []string{"tiles", "slowest_tile", "slowest_sec"} {
			if sd.Attr(key) == nil {
				t.Errorf("fetch span lacks %s: %+v", key, sd.Attrs)
			}
		}
	}
}

// TestWatchedSessionUnchanged: a session with a registry, an event log
// and a tracer returns the StreamResult of a bare one. TraceID, the one
// field documented to differ, is the only one cleared.
func TestWatchedSessionUnchanged(t *testing.T) {
	f := fixture(t)
	link := testLink(f, 0.35)
	bare := runVirtual(t, link, client.StreamConfig{})
	watched := runVirtual(t, link, client.StreamConfig{
		Obs: obs.NewRegistry(), Log: obs.NewEventLog(nil, 16), Trace: trace.New(trace.Config{Seed: 9}),
	})
	if watched.TraceID == "" {
		t.Fatal("session was not traced")
	}
	watched.TraceID = ""
	if !reflect.DeepEqual(bare, watched) {
		t.Errorf("watching changed the session:\nbare    %+v\nwatched %+v", bare, watched)
	}
}
