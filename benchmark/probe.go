package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"pano/internal/obs"
	"pano/internal/trace"
)

// prober is the traced run's toolbox. Spans are recorded here, in the
// benchmark's own files, around calls into each package's exported
// functions; nothing inside the program is instrumented. Each probed
// call is one op with its own trace id; traces stay in memory and a
// bounded sample of them is written as one Chrome trace at exit.
type prober struct {
	got   metrics
	calls int // calls per probe
	kept  []*trace.TraceData
	seed  uint64
}

// keepPerProbe bounds how many traces of one probe reach the Chrome
// trace file: statistics use every call, the file is for looking at.
const keepPerProbe = 24

func newProber(o options, got metrics) *prober {
	return &prober{got: got, calls: o.size.probeCalls, seed: o.seed}
}

// opTracer returns the tracer handed to traced passes: it retains only
// the most recent traces, since a serve pass issues tens of thousands.
func (p *prober) opTracer() *trace.Tracer {
	return trace.New(trace.Config{Seed: p.seed, MaxTraces: keepPerProbe})
}

func (p *prober) keep(tr *trace.Tracer) {
	ts := tr.Traces()
	if len(ts) > keepPerProbe {
		ts = ts[:keepPerProbe]
	}
	p.kept = append(p.kept, ts...)
}

// run calls fn n times, each inside its own root span. fn may open child
// spans from ctx with trace.StartSpan. It returns the finished traces.
func (p *prober) run(name string, n int, fn func(ctx context.Context, i int)) []*trace.TraceData {
	tr := trace.New(trace.Config{Seed: p.seed, MaxTraces: n})
	for i := 0; i < n; i++ {
		ctx, sp := tr.Start(context.Background(), name)
		fn(ctx, i)
		sp.End()
	}
	p.keep(tr)
	return tr.Traces()
}

// timeUS probes fn and returns the median root-span duration in µs.
func (p *prober) timeUS(name string, n int, fn func(ctx context.Context, i int)) float64 {
	return medianUS(rootDurations(p.run(name, n, fn)))
}

// allocs returns heap allocations and bytes per call of fn, from
// runtime.MemStats deltas around n untraced calls on this goroutine.
func (p *prober) allocs(n int, fn func(i int)) (allocs, bytesPerCall float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// perCallNS times n back-to-back calls of a call too short for a span of
// its own and returns ns per call. One span covers the whole batch.
func (p *prober) perCallNS(name string, n int, fn func(i int)) float64 {
	ts := p.run(name, 1, func(context.Context, int) {
		for i := 0; i < n; i++ {
			fn(i)
		}
	})
	return float64(ts[0].Root().Dur.Nanoseconds()) / float64(n)
}

func rootDurations(ts []*trace.TraceData) []time.Duration {
	out := make([]time.Duration, 0, len(ts))
	for _, td := range ts {
		if r := td.Root(); r != nil {
			out = append(out, r.Dur)
		}
	}
	return out
}

// spanDurations returns the duration of every span called name.
func spanDurations(ts []*trace.TraceData, name string) []time.Duration {
	var out []time.Duration
	for _, td := range ts {
		for _, s := range td.Find(name) {
			out = append(out, s.Dur)
		}
	}
	return out
}

// sumSpans adds up the spans of one trace that carry one of the names.
func sumSpans(td *trace.TraceData, names ...string) time.Duration {
	var sum time.Duration
	for _, name := range names {
		for _, s := range td.Find(name) {
			sum += s.Dur
		}
	}
	return sum
}

func medianUS(d []time.Duration) float64 {
	return float64(percentile(d, 0.5).Nanoseconds()) / 1e3
}

// crossCutting measures what every layer pays for being watched.
func (p *prober) crossCutting() error {
	const n = 200_000
	reg := obs.NewRegistry()
	c := reg.Counter("bench_probe_total", "probe counter")
	h := reg.Histogram("bench_probe_seconds", "probe histogram", nil)
	p.got["obs.counter_inc_ns"] = p.perCallNS("obs.counter_inc", n, func(int) { c.Inc() })
	p.got["obs.histogram_observe_ns"] = p.perCallNS("obs.histogram_observe", n, func(i int) { h.Observe(float64(i&1023) * 1e-4) })
	tr := trace.New(trace.Config{Seed: p.seed, MaxTraces: 8})
	ctx := context.Background()
	p.got["trace.span_ns"] = p.perCallNS("trace.span", n/4, func(int) {
		_, sp := tr.Start(ctx, "probe")
		sp.End()
	})
	return nil
}

// writeChromeTrace writes the kept traces and checks the file the way a
// reader would.
func (p *prober) writeChromeTrace(path string) (int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	sort.SliceStable(p.kept, func(i, j int) bool {
		return p.kept[i].Spans[0].Start.Before(p.kept[j].Spans[0].Start)
	})
	var buf bytes.Buffer
	if err := trace.WriteChromeTrace(&buf, p.kept...); err != nil {
		return 0, fmt.Errorf("write chrome trace: %w", err)
	}
	spans, err := trace.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		return 0, err
	}
	if spans == 0 {
		return 0, fmt.Errorf("chrome trace holds no spans")
	}
	return spans, os.WriteFile(path, buf.Bytes(), 0o644)
}
