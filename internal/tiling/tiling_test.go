package tiling

import (
	"testing"
	"testing/quick"

	"pano/internal/mathx"
)

func flatScores(rows, cols int, v float64) [][]float64 {
	s := make([][]float64, rows)
	for r := range s {
		s[r] = make([]float64, cols)
		for c := range s[r] {
			s[r][c] = v
		}
	}
	return s
}

// weightedVariance is the tiler's objective evaluated directly, without
// its prefix sums: the sum over tiles of (tile unit count) × (variance of
// scores within the tile).
func weightedVariance(l Layout, scores [][]float64) float64 {
	var total float64
	for _, t := range l.Tiles {
		n := float64(t.Units())
		var sum, sum2 float64
		for r := t.R0; r < t.R1; r++ {
			for c := t.C0; c < t.C1; c++ {
				s := scores[r][c]
				sum += s
				sum2 += s * s
			}
		}
		mean := sum / n
		total += n * (sum2/n - mean*mean)
	}
	return max(total, 0)
}

func TestGridRectsCoverFrame(t *testing.T) {
	for _, g := range []Grid{Grid3x6, Grid6x12, Grid12x24, {Rows: 5, Cols: 7}} {
		rects := g.Rects(480, 240)
		if len(rects) != g.Rows*g.Cols {
			t.Fatalf("%v: %d rects", g, len(rects))
		}
		area := 0
		for _, r := range rects {
			if r.Empty() {
				t.Fatalf("%v: empty rect %v", g, r)
			}
			area += r.Area()
		}
		if area != 480*240 {
			t.Errorf("%v: covered area %d, want %d", g, area, 480*240)
		}
	}
}

func TestUniformLayout(t *testing.T) {
	l, err := UniformLayout(Grid3x6)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Tiles) != 18 {
		t.Fatalf("tiles = %d, want 18", len(l.Tiles))
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := UniformLayout(Grid{Rows: 5, Cols: 7}); err == nil {
		t.Error("non-divisor grid should error")
	}
}

func TestLayoutValidateCatchesBadLayouts(t *testing.T) {
	// Overlap.
	l := Layout{Rows: 2, Cols: 2, Tiles: []UnitRect{
		{0, 0, 2, 2}, {0, 0, 1, 1},
	}}
	if err := l.Validate(); err == nil {
		t.Error("overlapping layout should fail")
	}
	// Gap.
	l = Layout{Rows: 2, Cols: 2, Tiles: []UnitRect{{0, 0, 1, 2}}}
	if err := l.Validate(); err == nil {
		t.Error("gapped layout should fail")
	}
	// Out of bounds.
	l = Layout{Rows: 2, Cols: 2, Tiles: []UnitRect{{0, 0, 3, 2}}}
	if err := l.Validate(); err == nil {
		t.Error("out-of-bounds layout should fail")
	}
}

func TestVariableTilingPartition(t *testing.T) {
	rng := mathx.NewRNG(3)
	scores := make([][]float64, UnitRows)
	for r := range scores {
		scores[r] = make([]float64, UnitCols)
		for c := range scores[r] {
			scores[r][c] = rng.Range(0, 10)
		}
	}
	l, err := VariableTiling(scores, DefaultTiles)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Tiles) != DefaultTiles {
		t.Errorf("tiles = %d, want %d", len(l.Tiles), DefaultTiles)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestVariableTilingIsolatesHotRegion(t *testing.T) {
	// Figure 9's example: a uniform field with two high-score blobs.
	// With enough tiles, the blobs should be separated from the
	// background: weighted variance falls well below the uniform
	// layout's.
	scores := flatScores(UnitRows, UnitCols, 1)
	for r := 3; r < 6; r++ {
		for c := 4; c < 8; c++ {
			scores[r][c] = 9
		}
	}
	for r := 7; r < 9; r++ {
		for c := 16; c < 20; c++ {
			scores[r][c] = 5
		}
	}
	varLayout, err := VariableTiling(scores, 12)
	if err != nil {
		t.Fatal(err)
	}
	uni, _ := UniformLayout(Grid3x6)
	wvVar := weightedVariance(varLayout, scores)
	wvUni := weightedVariance(uni, scores)
	if wvVar >= wvUni/4 {
		t.Errorf("variable tiling variance %v should be ≪ uniform %v", wvVar, wvUni)
	}
}

func TestVariableTilingFlatScoresStillPartitions(t *testing.T) {
	l, err := VariableTiling(flatScores(UnitRows, UnitCols, 2), 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Tiles) != 7 {
		t.Errorf("tiles = %d, want 7", len(l.Tiles))
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if wv := weightedVariance(l, flatScores(UnitRows, UnitCols, 2)); wv != 0 {
		t.Errorf("flat-score variance = %v, want 0", wv)
	}
}

func TestVariableTilingNCapsAtUnitCount(t *testing.T) {
	scores := flatScores(2, 3, 1)
	scores[0][0] = 5
	l, err := VariableTiling(scores, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Tiles) != 6 {
		t.Errorf("tiles = %d, want 6 (all units)", len(l.Tiles))
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestVariableTilingErrors(t *testing.T) {
	if _, err := VariableTiling(nil, 5); err == nil {
		t.Error("empty matrix should error")
	}
	if _, err := VariableTiling([][]float64{{1, 2}, {1}}, 5); err == nil {
		t.Error("ragged matrix should error")
	}
	if _, err := VariableTiling(flatScores(2, 2, 1), 0); err == nil {
		t.Error("n=0 should error")
	}
}

func TestVariableTilingSingleTile(t *testing.T) {
	l, err := VariableTiling(flatScores(4, 4, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Tiles) != 1 || l.Tiles[0].Units() != 16 {
		t.Errorf("single tile layout wrong: %+v", l.Tiles)
	}
}

func TestVariableTilingPropertyAlwaysPartition(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		rng := mathx.NewRNG(seed)
		rows, cols := 4+rng.Intn(9), 4+rng.Intn(21)
		scores := make([][]float64, rows)
		for r := range scores {
			scores[r] = make([]float64, cols)
			for c := range scores[r] {
				scores[r][c] = rng.Range(0, 100)
			}
		}
		n := 1 + int(nRaw)%64
		l, err := VariableTiling(scores, n)
		if err != nil {
			return false
		}
		if len(l.Tiles) > n || len(l.Tiles) > rows*cols {
			return false
		}
		return l.Validate() == nil
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestUnitRectPixels(t *testing.T) {
	u := UnitRect{R0: 0, C0: 0, R1: UnitRows, C1: UnitCols}
	r := u.Pixels(480, 240, UnitRows, UnitCols)
	if r.W() != 480 || r.H() != 240 {
		t.Errorf("full unit rect pixels = %v", r)
	}
}
