package sim

import (
	"math"
	"strings"
	"testing"

	"pano/internal/obs"
	"pano/internal/player"
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
