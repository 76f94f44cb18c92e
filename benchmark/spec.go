package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// spec is BENCHMARK.json: the one place metric names, units and bounds
// are written down. The workloads emit values by name; units come from
// here, and a name emitted but not declared fails the run.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read spec: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(sp.Workloads) == 0 || len(sp.EndToEnd) == 0 || len(sp.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: workloads, end_to_end and per_layer must all be non-empty", path)
	}
	return &sp, nil
}

// metricValue is one reported number, in the driver's JSON shape.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints: exactly the
// four keys the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metrics collects values by declared name.
type metrics map[string]float64

// resolve turns emitted values into the reported set for one mode. Every
// emitted name must be declared; every declared end-to-end name must be
// emitted. A per-layer name the workload did not emit is reported as 0:
// the layer is not on that workload's path, so it did no work there.
func resolve(declared []metricSpec, got metrics, fillZero bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(declared))
	for _, d := range declared {
		v, ok := got[d.Name]
		if !ok && !fillZero {
			return nil, fmt.Errorf("metric %s declared but not emitted", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	var stray []string
	for name := range got {
		if _, ok := out[name]; !ok {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return nil, fmt.Errorf("metrics emitted but not declared in the spec: %v", stray)
	}
	return out, nil
}
