package experiments

import (
	"fmt"
	"sort"
)

// Runner executes one experiment and renders its table.
type Runner func(d *Dataset) (*Table, error)

func tableOnly3[T any](f func(*Dataset) (T, *Table, error)) Runner {
	return func(d *Dataset) (*Table, error) {
		_, t, err := f(d)
		return t, err
	}
}

// registry maps experiment ids (DESIGN.md §3) to runners.
var registry = map[string]Runner{
	"fig1":   tableOnly3(Fig1),
	"fig3":   tableOnly3(Fig3),
	"fig4":   tableOnly3(Fig4),
	"fig6":   tableOnly3(Fig6),
	"fig7":   tableOnly3(Fig7),
	"fig8":   tableOnly3(Fig8),
	"fig10":  tableOnly3(Fig10),
	"fig13":  tableOnly3(Fig13),
	"fig15":  tableOnly3(Fig15),
	"fig16a": tableOnly3(Fig16a),
	"fig16b": tableOnly3(Fig16b),
	"fig16c": tableOnly3(Fig16c),
	"fig16d": tableOnly3(Fig16d),
	"fig17a": tableOnly3(Fig17a),
	"fig17b": tableOnly3(Fig17b),
	"fig17c": tableOnly3(Fig17c),
	"fig18a": tableOnly3(Fig18a),
	"fig18b": tableOnly3(Fig18b),
	"lut":    tableOnly3(LookupTableCompression),
	"prune":  tableOnly3(AllocationPruning),
	// Extensions beyond the paper (see EXPERIMENTS.md).
	"joint3":    tableOnly3(Joint3),
	"crossuser": tableOnly3(CrossUserPrediction),
	"chaos":     tableOnly3(ChaosBench),
	"trace":     tableOnly3(TraceBench),
	"edge":      tableOnly3(EdgeBench),
	"swarm":     tableOnly3(SwarmBench),
	"fleet":     tableOnly3(FleetBench),
	"cluster":   tableOnly3(ClusterBench),
	"live":      tableOnly3(LiveBench),
	"tab2": func(d *Dataset) (*Table, error) {
		return Table2(d), nil
	},
	"tab3": func(d *Dataset) (*Table, error) {
		return Table3(), nil
	},
}

// IDs returns the experiment ids in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes the experiment with the given id.
func Run(d *Dataset, id string) (*Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
	}
	return r(d)
}
