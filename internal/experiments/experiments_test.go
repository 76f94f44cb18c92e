package experiments

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"pano/internal/manifest"
	"pano/internal/mathx"
	"pano/internal/scene"
)

// The shared dataset is expensive to preprocess; build it once. Tests
// use an even smaller scale than QuickScale to stay fast.
var (
	dsOnce sync.Once
	ds     *Dataset
)

func testDataset(t *testing.T) *Dataset {
	t.Helper()
	dsOnce.Do(func() {
		s := QuickScale()
		s.TracedVideos = 3
		s.TotalVideos = 7 // one per genre after mixing
		s.Users = 2
		s.DurationSec = 8
		ds = NewDataset(s)
	})
	return ds
}

func TestDatasetGenreMixAndDeterminism(t *testing.T) {
	s := QuickScale()
	s.TotalVideos = 50
	a := NewDataset(s)
	b := NewDataset(s)
	counts := map[scene.Genre]int{}
	for i, v := range a.Videos() {
		counts[v.Genre]++
		if v.Name != b.Videos()[i].Name {
			t.Fatal("dataset should be deterministic")
		}
	}
	// Table 2 mix: Sports ≈ 22%, Performance ≈ 20%, Documentary ≈ 14%.
	if c := counts[scene.Sports]; c < 9 || c > 13 {
		t.Errorf("sports count = %d, want ≈11", c)
	}
	if c := counts[scene.Performance]; c < 8 || c > 12 {
		t.Errorf("performance count = %d, want ≈10", c)
	}
	if c := counts[scene.Documentary]; c < 5 || c > 9 {
		t.Errorf("documentary count = %d, want ≈7", c)
	}
}

func TestDatasetCachesManifests(t *testing.T) {
	d := testDataset(t)
	m1, err := d.Manifest(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := d.Manifest(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("manifest should be cached (same pointer)")
	}
	if len(d.Traces(0)) != d.Scale.Users {
		t.Errorf("traces = %d, want %d", len(d.Traces(0)), d.Scale.Users)
	}
}

func TestFig1Shape(t *testing.T) {
	d := testDataset(t)
	rows, table, err := Fig1(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	byName := map[System]Fig1Row{}
	for _, r := range rows {
		byName[r.System] = r
	}
	// Headline shape: Pano's quality is at least the baselines'.
	if byName[SysPano].PSPNR < byName[SysFlare].PSPNR {
		t.Errorf("pano %.1f below viewport-driven %.1f", byName[SysPano].PSPNR, byName[SysFlare].PSPNR)
	}
	if !strings.Contains(table.String(), "pano") {
		t.Error("table should render system names")
	}
}

func TestFig3Shape(t *testing.T) {
	d := testDataset(t)
	res, _, err := Fig3(d)
	if err != nil {
		t.Fatal(err)
	}
	// §2.3: speed and DoF exceed their thresholds for some but not all
	// of the time (the paper reports 5-40%).
	for name, frac := range map[string]float64{
		"speed": res.SpeedExceed, "dof": res.DoFExceed,
	} {
		if frac < 0.002 || frac > 0.9 {
			t.Errorf("%s exceedance = %.3f, want a nontrivial fraction", name, frac)
		}
	}
	// The 200-grey luminance tail needs minutes of viewing to populate
	// (5 s windows must straddle a full light cycle); at this test
	// scale assert nontrivial luminance dynamics instead.
	if res.LumaChange.Quantile(0.9) < 40 {
		t.Errorf("p90 luma change = %v, want ≥ 40 grey", res.LumaChange.Quantile(0.9))
	}
	if res.Speed.Quantile(0.5) <= 0 {
		t.Error("median speed should be positive")
	}
}

func TestFig4Shape(t *testing.T) {
	d := testDataset(t)
	rows, _, err := Fig4(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if !(rows[0].MeanRatio < rows[1].MeanRatio && rows[1].MeanRatio < rows[2].MeanRatio) {
		t.Errorf("ratios not increasing: %v %v %v", rows[0].MeanRatio, rows[1].MeanRatio, rows[2].MeanRatio)
	}
	// Figure 4: 12x24 inflates to ~2-3x.
	if rows[2].MeanRatio < 1.5 || rows[2].MeanRatio > 4.5 {
		t.Errorf("12x24 ratio = %v, want ~2-3x", rows[2].MeanRatio)
	}
}

func TestFig6Shape(t *testing.T) {
	d := testDataset(t)
	rows, _, err := Fig6(d)
	if err != nil {
		t.Fatal(err)
	}
	// Measured JND rises monotonically within each factor and tracks
	// the model within 35%.
	last := map[string]float64{}
	for _, r := range rows {
		if prev, ok := last[r.Factor]; ok && r.MeasuredJND < prev-1.0 {
			t.Errorf("%s: measured JND fell from %v to %v", r.Factor, prev, r.MeasuredJND)
		}
		last[r.Factor] = r.MeasuredJND
		if r.ModelJND > 0 {
			dev := (r.MeasuredJND - r.ModelJND) / r.ModelJND
			if dev > 0.5 || dev < -0.5 {
				t.Errorf("%s@%v: measured %v vs model %v", r.Factor, r.Value, r.MeasuredJND, r.ModelJND)
			}
		}
	}
}

func TestFig7IndependenceHolds(t *testing.T) {
	d := testDataset(t)
	rows, _, err := Fig7(d)
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for _, r := range rows {
		if r.RelDeviation > worst {
			worst = r.RelDeviation
		}
	}
	if worst > 0.30 {
		t.Errorf("independence deviation %.0f%%, want ≤ 30%%", worst*100)
	}
}

func TestFig8Ordering(t *testing.T) {
	d := testDataset(t)
	res, _, err := Fig8(d)
	if err != nil {
		t.Fatal(err)
	}
	m360 := mathx.NewCDF(res.Err360PSPNR).Quantile(0.5)
	mTrad := mathx.NewCDF(res.ErrTradPSPNR).Quantile(0.5)
	mPSNR := mathx.NewCDF(res.ErrPSNR).Quantile(0.5)
	// Figure 8's ordering: 360JND best; PSNR worst or equal.
	if m360 > mTrad+1e-9 {
		t.Errorf("360JND median error %v above traditional %v", m360, mTrad)
	}
	if m360 > mPSNR+1e-9 {
		t.Errorf("360JND median error %v above PSNR %v", m360, mPSNR)
	}
}

func TestFig10BoundHolds(t *testing.T) {
	d := testDataset(t)
	rows, _, err := Fig10(d)
	if err != nil {
		t.Fatal(err)
	}
	held := 0
	for _, r := range rows {
		if r.PredictedBound <= r.RealSpeed+1.0 {
			held++
		}
	}
	if frac := float64(held) / float64(len(rows)); frac < 0.7 {
		t.Errorf("bound held %.0f%% of time, want ≥ 70%%", frac*100)
	}
}

// The pruned rows report what the search did, not the size of its input:
// states kept per call, how often the cap made the plan approximate, and
// how often there was nothing to search.
func TestAllocationPruningMeasuresTheSearch(t *testing.T) {
	rows, table, err := AllocationPruning(testDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	pruned, greedy, exhaustive := rows[0], rows[1], rows[2]
	if pruned.States < 1 || pruned.ThinnedFrac < 0 || pruned.ThinnedFrac > 1 {
		t.Errorf("pruned row: %v states per call, cap hit on %v of calls", pruned.States, pruned.ThinnedFrac)
	}
	if pruned.ThinnedFrac == 0 && (exhaustive.CostRatio < 1-1e-9 || exhaustive.CostRatio > 1+1e-9) {
		t.Errorf("no call hit the cap, yet pruned costs %v× the exhaustive optimum", exhaustive.CostRatio)
	}
	if greedy.CostRatio < 1-1e-9 {
		t.Errorf("greedy costs %v× the pruned plan: below an optimum", greedy.CostRatio)
	}
	if got := table.Header[len(table.Header)-3:]; got[0] != "states_per_search" || got[1] != "thinned_pct" || got[2] != "no_search_pct" {
		t.Errorf("last columns %q, want states_per_search, thinned_pct, no_search_pct", got)
	}
	// Where the sessions sit: a simulator session's first chunk is planned
	// at the all-lowest size and the rest have room to upgrade; a swarm
	// session, on slower links and under faults, has room on fewer chunks,
	// but since the RTT is paid once per turn instead of once
	// per object it is no longer nearly never.
	simCalls, swarmCalls := rows[3], rows[4]
	if simCalls.NoSearchFrac <= 0 || simCalls.NoSearchFrac > 0.5 || simCalls.States < 1 ||
		simCalls.SearchedStates <= simCalls.States || simCalls.ThinnedFrac != 0 {
		t.Errorf("sim sessions: %v of calls answered without a search, %v states per call, %v per searched call, %v of calls thinned",
			simCalls.NoSearchFrac, simCalls.States, simCalls.SearchedStates, simCalls.ThinnedFrac)
	}
	if swarmCalls.NoSearchFrac <= simCalls.NoSearchFrac || swarmCalls.NoSearchFrac >= 0.9 {
		t.Errorf("swarm population: %v of calls answered without a search, want more than the sim sessions' %v and under 0.9",
			swarmCalls.NoSearchFrac, simCalls.NoSearchFrac)
	}
}

// contractTested are the registry ids that have their own
// Test*BenchContract, which runs the experiment once at the size it
// chooses and ends with checkTable; the sweep below runs every other id.
// TestEveryExperimentRunsOnce holds the two sets to a partition.
var contractTested = map[string]bool{
	"chaos": true, "cluster": true, "edge": true, "fleet": true,
	"live": true, "lut": true, "trace": true,
}

// TestLUTContract: on the quick and the benchmark video the wire keeps
// at least one bit of precision over every field group's consequence
// knee, and with every group at the wire's precision at once no plan
// costs more at the exact sizes than at the wire's and mean plan PSPNR
// falls by at most maxFallDB; the benchmark video takes at most 40 B
// per tile on the wire.
func TestLUTContract(t *testing.T) {
	res, table, err := LookupTableCompression(testDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Knees) != 2*len(manifest.FieldGroups()) || len(res.Wire) != 2 {
		t.Fatalf("%d knee rows and %d wire rows, want one per group and one per video", len(res.Knees), len(res.Wire))
	}
	for _, k := range res.Knees {
		if k.Wire < k.Consequence+1 {
			t.Errorf("%s, %s: the wire's precision %d has no bit over the consequence knee %d", k.Video, k.Group, k.Wire, k.Consequence)
		}
		if k.Identity < k.Consequence {
			t.Errorf("%s, %s: identity knee %d coarser than the consequence knee %d", k.Video, k.Group, k.Identity, k.Consequence)
		}
	}
	for _, w := range res.Wire {
		if w.OverBudget != 0 || w.FallDB > maxFallDB {
			t.Errorf("%s: at the wire's precision %d plans over budget and PSPNR falls %.4f dB", w.Video, w.OverBudget, w.FallDB)
		}
		sum := 0.0
		for _, b := range w.GroupBytes {
			sum += b
		}
		if math.Abs(sum-w.BytesPerTile) > 1e-9 {
			t.Errorf("%s: the groups' bytes per tile sum to %v, the wire takes %v", w.Video, sum, w.BytesPerTile)
		}
	}
	if b := res.Wire[1].BytesPerTile; b > 40 {
		t.Errorf("the benchmark video takes %.1f B per tile", b)
	}
	checkTable(t, "lut", table)
}

// checkTable is what tier-1 asks of every registry id: a table with at
// least one row that renders.
func checkTable(t *testing.T, id string, table *Table) {
	t.Helper()
	if table == nil || len(table.Rows) == 0 {
		t.Fatalf("%s: empty table", id)
	}
	if table.String() == "" {
		t.Fatalf("%s: empty render", id)
	}
}

func TestRegistryRunsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry is slow")
	}
	d := testDataset(t)
	old := Fig14OutDir
	Fig14OutDir = t.TempDir()
	defer func() { Fig14OutDir = old }()
	oldPops := SwarmPopulations
	SwarmPopulations = []int{200, 400} // the full ladder lives in `make swarm`
	defer func() { SwarmPopulations = oldPops }()
	for _, id := range IDs() {
		if contractTested[id] {
			continue
		}
		t0 := time.Now()
		table, err := Run(d, id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		checkTable(t, id, table)
		t.Logf("%-9s %6.2fs", id, time.Since(t0).Seconds())
	}
}

// TestEveryExperimentRunsOnce: tier-1 runs each registry id exactly
// once — in its contract test or in the sweep, never both, never
// neither. A contract test is recognised by its checkTable(t, "<id>", …)
// call, so an id cannot be listed as contract-tested without one.
func TestEveryExperimentRunsOnce(t *testing.T) {
	files, err := filepath.Glob("*_test.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no test sources found: %v", err)
	}
	calls := map[string]int{}
	re := regexp.MustCompile(`checkTable\(t, "([a-z0-9]+)"`)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range re.FindAllSubmatch(src, -1) {
			calls[string(m[1])]++
		}
	}
	known := map[string]bool{}
	for _, id := range IDs() {
		known[id] = true
		want := 0
		if contractTested[id] {
			want = 1
		}
		if calls[id] != want {
			t.Errorf("%s: %d contract tests end with checkTable, want %d (contractTested = %v)",
				id, calls[id], want, contractTested[id])
		}
	}
	for id := range contractTested {
		if !known[id] {
			t.Errorf("contractTested lists %q, which is not a registry id", id)
		}
	}
	for id := range calls {
		if !known[id] {
			t.Errorf("a test calls checkTable for %q, which is not a registry id", id)
		}
	}
}

func TestFig14WritesSnapshots(t *testing.T) {
	d := testDataset(t)
	dir := t.TempDir()
	rows, _, err := Fig14(d, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		st, err := os.Stat(r.PNGPath)
		if err != nil {
			t.Fatalf("%s: %v", r.System, err)
		}
		if st.Size() == 0 {
			t.Errorf("%s: empty PNG", r.System)
		}
		if r.MeanLevel < 0 || r.MeanLevel > 4 {
			t.Errorf("%s: mean level %v", r.System, r.MeanLevel)
		}
	}
	if _, err := os.Stat(dir + "/fig14-original.png"); err != nil {
		t.Error("original snapshot missing")
	}
	// Pano spends more of its budget on the moving objects than on the
	// background, relative to the baseline (the Figure 14 story).
	pano, flare := rows[0], rows[1]
	panoSplit := pano.BackgroundLevel - pano.FocusLevel
	flareSplit := flare.BackgroundLevel - flare.FocusLevel
	if panoSplit < flareSplit-1.5 {
		t.Errorf("pano object-vs-background split %.2f much below baseline %.2f",
			panoSplit, flareSplit)
	}
}

func TestJoint3Independence(t *testing.T) {
	// The §9 extension: with all three factors non-zero, the measured
	// joint JND still matches the product of marginals within the
	// panel's noise.
	d := testDataset(t)
	rows, _, err := Joint3(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 27 {
		t.Fatalf("rows = %d, want 27", len(rows))
	}
	var worst float64
	for _, r := range rows {
		if r.RelDeviation > worst {
			worst = r.RelDeviation
		}
		if r.JointJND <= 0 || r.ProductJND <= 0 {
			t.Fatalf("non-positive JND in row %+v", r)
		}
	}
	if worst > 0.35 {
		t.Errorf("three-factor independence deviation %.0f%%, want ≤ 35%%", worst*100)
	}
}

func TestCrossUserPredictionImproves(t *testing.T) {
	d := testDataset(t)
	rows, _, err := CrossUserPrediction(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// At the longest horizon the cross-user prior should help (our
	// traces share salient objects).
	last := rows[len(rows)-1]
	if last.CrossUserErrDeg > last.LinearErrDeg+2 {
		t.Errorf("cross-user error %.1f° much worse than linear %.1f° at %gs",
			last.CrossUserErrDeg, last.LinearErrDeg, last.HorizonSec)
	}
}

func TestRunUnknownID(t *testing.T) {
	d := testDataset(t)
	if _, err := Run(d, "fig99"); err == nil {
		t.Error("unknown id should error")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}}}
	s := tab.String()
	if !strings.Contains(s, "== T ==") || !strings.Contains(s, "bb") {
		t.Errorf("render: %q", s)
	}
}
