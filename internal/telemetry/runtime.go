package telemetry

import (
	"math"
	"runtime"
	rtm "runtime/metrics"

	"pano/internal/obs"
)

// Runtime health metric names written into the scraped registry (and
// therefore into the windowed store) each sampling tick.
const (
	metricGoroutines  = "pano_runtime_goroutines"
	metricHeapBytes   = "pano_runtime_heap_bytes"
	metricGCCycles    = "pano_runtime_gc_cycles_total"
	metricGCPauseP99  = "pano_runtime_gc_pause_p99_seconds"
	metricSchedLatP99 = "pano_runtime_sched_latency_p99_seconds"
)

// runtimeSampler reads Go runtime health (heap, GC, goroutines,
// scheduler latency) via runtime/metrics into plain obs gauges, so
// runtime signals flow through the same windowed store and dashboard
// as QoE signals.
type runtimeSampler struct {
	reg     *obs.Registry
	samples []rtm.Sample

	goroutines *obs.Gauge
	heapBytes  *obs.Gauge
	gcCycles   *obs.Counter
	gcPause    *obs.Gauge
	schedLat   *obs.Gauge

	lastGCCycles uint64
	lastGCPause  *rtm.Float64Histogram
	lastSched    *rtm.Float64Histogram
}

const (
	rmHeap    = "/memory/classes/heap/objects:bytes"
	rmGC      = "/gc/cycles/total:gc-cycles"
	rmGCPause = "/gc/pauses:seconds"
	rmSched   = "/sched/latencies:seconds"
)

func newRuntimeSampler(reg *obs.Registry) *runtimeSampler {
	rs := &runtimeSampler{
		reg: reg,
		samples: []rtm.Sample{
			{Name: rmHeap}, {Name: rmGC}, {Name: rmGCPause}, {Name: rmSched},
		},
		goroutines: reg.Gauge(metricGoroutines, "live goroutines"),
		heapBytes:  reg.Gauge(metricHeapBytes, "bytes of live heap objects"),
		gcCycles:   reg.Counter(metricGCCycles, "completed GC cycles"),
		gcPause:    reg.Gauge(metricGCPauseP99, "p99 GC stop-the-world pause over the last sampling interval"),
		schedLat:   reg.Gauge(metricSchedLatP99, "p99 goroutine scheduling latency over the last sampling interval"),
	}
	return rs
}

// sample reads the runtime once and updates the gauges. Histogram-typed
// runtime metrics are cumulative since process start, so p99s are
// computed over the delta since the previous sample — a true "last
// interval" tail, not a lifetime average.
func (rs *runtimeSampler) sample() {
	rs.goroutines.Set(float64(runtime.NumGoroutine()))
	rtm.Read(rs.samples)
	for i := range rs.samples {
		s := &rs.samples[i]
		switch s.Name {
		case rmHeap:
			if s.Value.Kind() == rtm.KindUint64 {
				rs.heapBytes.Set(float64(s.Value.Uint64()))
			}
		case rmGC:
			if s.Value.Kind() == rtm.KindUint64 {
				v := s.Value.Uint64()
				if v > rs.lastGCCycles {
					rs.gcCycles.Add(float64(v - rs.lastGCCycles))
				}
				rs.lastGCCycles = v
			}
		case rmGCPause:
			if s.Value.Kind() == rtm.KindFloat64Histogram {
				h := s.Value.Float64Histogram()
				rs.gcPause.Set(histDeltaQuantile(0.99, h, rs.lastGCPause))
				rs.lastGCPause = cloneHist(h)
			}
		case rmSched:
			if s.Value.Kind() == rtm.KindFloat64Histogram {
				h := s.Value.Float64Histogram()
				rs.schedLat.Set(histDeltaQuantile(0.99, h, rs.lastSched))
				rs.lastSched = cloneHist(h)
			}
		}
	}
}

func cloneHist(h *rtm.Float64Histogram) *rtm.Float64Histogram {
	return &rtm.Float64Histogram{
		Counts:  append([]uint64(nil), h.Counts...),
		Buckets: h.Buckets, // bucket layout is fixed for a metric
	}
}

// histDeltaQuantile estimates the q-quantile of cur-minus-prev on a
// runtime/metrics histogram by obs.HistogramQuantile. A runtime
// histogram has len(Buckets) == len(Counts)+1 edges; its first bucket
// starts at -Inf or 0 (HistogramQuantile's lower edge is 0), and a
// +Inf last edge is the overflow bucket, whose estimate saturates at
// its finite lower edge. An empty delta returns 0.
func histDeltaQuantile(q float64, cur, prev *rtm.Float64Histogram) float64 {
	counts := append([]uint64(nil), cur.Counts...)
	if prev != nil && len(prev.Counts) == len(counts) {
		for i, p := range prev.Counts {
			counts[i] -= min(p, counts[i])
		}
	}
	uppers := cur.Buckets[1:]
	if math.IsInf(uppers[len(uppers)-1], 1) {
		uppers = uppers[:len(uppers)-1]
	} else {
		counts = append(counts, 0)
	}
	return obs.HistogramQuantile(q, uppers, counts)
}
