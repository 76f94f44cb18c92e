package sim

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"pano/internal/abr"
	"pano/internal/jnd"
	"pano/internal/manifest"
	"pano/internal/obs"
	"pano/internal/player"
	"pano/internal/trace"
)

// Traced, instrumented and plain sessions take the one scoring path, so
// they score alike; the traced one shows each chunk's scoring as a
// "score" span carrying the chunk's delivered PSPNR.
func TestTracedAndInstrumentedScoreAsPlain(t *testing.T) {
	f := fixture(t)
	run := func(cfg Config) *Result {
		t.Helper()
		res, err := Run(f.pano, f.traces[1], testLink(f, 0.3), player.NewPanoPlanner(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(DefaultConfig())

	cfg := DefaultConfig()
	cfg.Trace = trace.New(trace.Config{Seed: 7})
	traced := run(cfg)
	var td *trace.TraceData
	for _, x := range cfg.Trace.Traces() {
		if x.ID.String() == traced.TraceID {
			td = x
		}
	}
	if td == nil {
		t.Fatalf("trace %q not finished", traced.TraceID)
	}
	spans := td.Find("score")
	if len(spans) != f.pano.NumChunks() {
		t.Fatalf("%d score spans, want one per chunk (%d)", len(spans), f.pano.NumChunks())
	}
	for k, sd := range spans {
		if got, ok := sd.Attr("pspnr_db").(float64); !ok || got != traced.PerChunkPSPNR[k] {
			t.Errorf("score span %d: pspnr_db %v, chunk %d scored %v", k, sd.Attr("pspnr_db"), k, traced.PerChunkPSPNR[k])
		}
	}
	traced.TraceID = ""
	if !reflect.DeepEqual(traced, plain) {
		t.Errorf("traced session %+v, plain %+v", traced, plain)
	}

	cfg = DefaultConfig()
	cfg.Obs, cfg.Log = obs.NewRegistry(), obs.NewEventLog(nil, 64)
	if inst := run(cfg); !reflect.DeepEqual(inst, plain) {
		t.Errorf("instrumented session %+v, plain %+v", inst, plain)
	}
}

// Two sessions at once, each with its scorer beside its loop, share one
// content-JND cache over pixel-accurate scoring: under the race detector
// (make race) this is the scorers reading and filling the cache
// concurrently. Each scores what a session alone with a cold cache does.
func TestConcurrentRunsShareFieldCache(t *testing.T) {
	f := fixture(t)
	cfg := DefaultConfig()
	cfg.Scene = f.video
	link := testLink(f, 0.3)
	var want [2]*Result
	for i := range want {
		c := cfg
		c.FieldCache = jnd.NewFieldCache(0, nil)
		r, err := Run(f.pano, f.traces[i], link, player.NewPanoPlanner(), c)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	cfg.FieldCache = jnd.NewFieldCache(0, nil)
	var got [2]*Result
	var errs [2]error
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = Run(f.pano, f.traces[i], link, player.NewPanoPlanner(), cfg)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("session %d beside another: %+v, alone: %+v", i, got[i], want[i])
		}
	}
}

// panicPlanner is the Pano planner until chunk at, where it panics.
type panicPlanner struct {
	*player.PanoPlanner
	at int
}

func (p panicPlanner) Plan(m *manifest.Video, k int, view player.ChunkView, budget float64) abr.Allocation {
	if k == p.at {
		panic("planner failed")
	}
	return p.PanoPlanner.Plan(m, k, view, budget)
}

// Run leaves no scorer behind. Once the session starts Run has no error
// return — RunSession fails only on a canceled context, and Run's is
// never canceled — so the early exit is a panic out of the loop, which
// Run passes on after its scorer has exited; an invalid manifest fails
// before a scorer starts.
func TestScorerExitsWithRun(t *testing.T) {
	f := fixture(t)
	// settle waits out a goroutine that has signalled its end and not
	// yet returned; one that leaked is still counted 100 ms on. The count
	// may also fall below before: the runtime goroutine that runs
	// cleanups (the planner's tables register some) can be counted before
	// a session and be gone after, so only a rise is a leak.
	settle := func(want int) int {
		n := runtime.NumGoroutine()
		for i := 0; i < 100 && n > want; i++ {
			time.Sleep(time.Millisecond)
			n = runtime.NumGoroutine()
		}
		return n
	}
	before := runtime.NumGoroutine()

	if _, err := Run(f.pano, f.traces[0], testLink(f, 0.3), player.NewPanoPlanner(), DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if n := settle(before); n > before {
		t.Errorf("%d goroutines after a session, %d before", n, before)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("the planner's panic did not reach the caller")
			}
		}()
		Run(f.pano, f.traces[0], testLink(f, 0.3), panicPlanner{player.NewPanoPlanner(), 3}, DefaultConfig())
	}()
	if n := settle(before); n > before {
		t.Errorf("%d goroutines after a session that panicked, %d before", n, before)
	}

	if _, err := Run(&manifest.Video{}, f.traces[0], testLink(f, 0.3), player.NewPanoPlanner(), DefaultConfig()); err == nil {
		t.Error("an empty manifest ran")
	}
	if n := settle(before); n > before {
		t.Errorf("%d goroutines after a failed session, %d before", n, before)
	}
}
