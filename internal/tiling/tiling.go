// Package tiling implements the spatial tiling schemes of §5.
//
// A chunk is first divided into a fine 12×24 grid of unit tiles. Pano
// then groups unit tiles into N variable-size rectangles so that unit
// tiles with similar efficiency scores — how fast a tile's PSPNR grows
// with quality level (Equation 5) — land in the same rectangle. The
// grouping minimizes the area-weighted variance of scores within
// rectangles via a top-down 2-D splitting process, in the spirit of the
// classic CLIQUE 2-D clustering enumeration the paper cites.
//
// Uniform grids (3×6, 6×12, 12×24) are also provided for the baselines
// and the Figure 4 overhead study.
package tiling

import (
	"container/heap"
	"fmt"

	"pano/internal/geom"
)

// Unit grid dimensions used by Pano's step 1 (§5).
const (
	UnitRows = 12
	UnitCols = 24
)

// DefaultTiles is the default number of variable-size tiles (N in §5).
const DefaultTiles = 30

// Grid is a uniform rows×cols tiling.
type Grid struct {
	Rows, Cols int
}

// Common uniform grids from the paper.
var (
	Grid3x6   = Grid{Rows: 3, Cols: 6}
	Grid6x12  = Grid{Rows: 6, Cols: 12}
	Grid12x24 = Grid{Rows: UnitRows, Cols: UnitCols}
)

// Rects returns the pixel rectangles of the grid over a w×h frame.
// Remainder pixels are distributed by proportional integer boundaries.
func (g Grid) Rects(w, h int) []geom.Rect {
	out := make([]geom.Rect, 0, g.Rows*g.Cols)
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			out = append(out, geom.Rect{
				X0: c * w / g.Cols, Y0: r * h / g.Rows,
				X1: (c + 1) * w / g.Cols, Y1: (r + 1) * h / g.Rows,
			})
		}
	}
	return out
}

// String implements fmt.Stringer.
func (g Grid) String() string { return fmt.Sprintf("%dx%d", g.Rows, g.Cols) }

// UnitRect is a rectangle in unit-tile coordinates: rows [R0,R1) and
// columns [C0,C1) of the 12×24 unit grid.
type UnitRect struct {
	R0, C0, R1, C1 int
}

// Units returns the number of unit tiles covered.
func (u UnitRect) Units() int { return (u.R1 - u.R0) * (u.C1 - u.C0) }

// Pixels converts the unit rectangle to pixels on a w×h frame tiled by
// the rows×cols unit grid.
func (u UnitRect) Pixels(w, h, rows, cols int) geom.Rect {
	return geom.Rect{
		X0: u.C0 * w / cols, Y0: u.R0 * h / rows,
		X1: u.C1 * w / cols, Y1: u.R1 * h / rows,
	}
}

// Layout is a complete tiling of the unit grid into disjoint rectangles.
type Layout struct {
	Rows, Cols int
	Tiles      []UnitRect
}

// UniformLayout returns a layout mirroring uniform grid g on the unit
// grid; g's dimensions must divide the unit grid's.
func UniformLayout(g Grid) (Layout, error) {
	if g.Rows <= 0 || g.Cols <= 0 || UnitRows%g.Rows != 0 || UnitCols%g.Cols != 0 {
		return Layout{}, fmt.Errorf("tiling: grid %v does not divide unit grid %dx%d", g, UnitRows, UnitCols)
	}
	rh := UnitRows / g.Rows
	cw := UnitCols / g.Cols
	l := Layout{Rows: UnitRows, Cols: UnitCols}
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			l.Tiles = append(l.Tiles, UnitRect{R0: r * rh, C0: c * cw, R1: (r + 1) * rh, C1: (c + 1) * cw})
		}
	}
	return l, nil
}

// Validate checks that the layout's tiles exactly partition the unit
// grid: disjoint and covering.
func (l Layout) Validate() error {
	if l.Rows <= 0 || l.Cols <= 0 {
		return fmt.Errorf("tiling: invalid layout dims %dx%d", l.Rows, l.Cols)
	}
	covered := make([]bool, l.Rows*l.Cols)
	for _, t := range l.Tiles {
		if t.R0 < 0 || t.C0 < 0 || t.R1 > l.Rows || t.C1 > l.Cols || t.R1 <= t.R0 || t.C1 <= t.C0 {
			return fmt.Errorf("tiling: tile %+v out of bounds", t)
		}
		for r := t.R0; r < t.R1; r++ {
			for c := t.C0; c < t.C1; c++ {
				if covered[r*l.Cols+c] {
					return fmt.Errorf("tiling: unit (%d,%d) covered twice", r, c)
				}
				covered[r*l.Cols+c] = true
			}
		}
	}
	for i, ok := range covered {
		if !ok {
			return fmt.Errorf("tiling: unit (%d,%d) uncovered", i/l.Cols, i%l.Cols)
		}
	}
	return nil
}

// prefix holds 2-D prefix sums of the score matrix and its square for
// O(1) rectangle variance queries.
type prefix struct {
	rows, cols int
	s, s2      []float64
}

func newPrefix(scores [][]float64) *prefix {
	rows := len(scores)
	cols := len(scores[0])
	p := &prefix{rows: rows, cols: cols,
		s:  make([]float64, (rows+1)*(cols+1)),
		s2: make([]float64, (rows+1)*(cols+1)),
	}
	w := cols + 1
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := scores[r][c]
			p.s[(r+1)*w+c+1] = v + p.s[r*w+c+1] + p.s[(r+1)*w+c] - p.s[r*w+c]
			p.s2[(r+1)*w+c+1] = v*v + p.s2[r*w+c+1] + p.s2[(r+1)*w+c] - p.s2[r*w+c]
		}
	}
	return p
}

// cost returns n * variance for a unit rectangle.
func (p *prefix) cost(u UnitRect) float64 {
	w := p.cols + 1
	rect := func(a []float64) float64 {
		return a[u.R1*w+u.C1] - a[u.R0*w+u.C1] - a[u.R1*w+u.C0] + a[u.R0*w+u.C0]
	}
	n := float64(u.Units())
	sum := rect(p.s)
	sum2 := rect(p.s2)
	v := sum2 - sum*sum/n
	if v < 0 {
		v = 0
	}
	return v
}

// split describes the best way to cut a rectangle.
type split struct {
	rect       UnitRect
	a, b       UnitRect
	gain       float64 // cost(rect) - cost(a) - cost(b), >= 0
	splittable bool
}

func bestSplit(p *prefix, u UnitRect) split {
	out := split{rect: u}
	base := p.cost(u)
	try := func(a, b UnitRect) {
		g := base - p.cost(a) - p.cost(b)
		if !out.splittable || g > out.gain {
			out = split{rect: u, a: a, b: b, gain: g, splittable: true}
		}
	}
	for r := u.R0 + 1; r < u.R1; r++ {
		try(UnitRect{u.R0, u.C0, r, u.C1}, UnitRect{r, u.C0, u.R1, u.C1})
	}
	for c := u.C0 + 1; c < u.C1; c++ {
		try(UnitRect{R0: u.R0, C0: u.C0, R1: u.R1, C1: c}, UnitRect{R0: u.R0, C0: c, R1: u.R1, C1: u.C1})
	}
	return out
}

// splitHeap orders candidate splits by descending gain.
type splitHeap []split

func (h splitHeap) Len() int            { return len(h) }
func (h splitHeap) Less(i, j int) bool  { return h[i].gain > h[j].gain }
func (h splitHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *splitHeap) Push(x interface{}) { *h = append(*h, x.(split)) }
func (h *splitHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// VariableTiling groups the unit grid into at most n rectangles using
// the top-down splitting of §5: starting from one whole-frame rectangle,
// repeatedly apply the split with the largest reduction in area-weighted
// score variance until n rectangles exist (or no rectangle can be split
// further). scores must be a UnitRows×UnitCols-shaped matrix, scores[r][c]
// being the efficiency score γ of unit tile (r, c).
func VariableTiling(scores [][]float64, n int) (Layout, error) {
	rows := len(scores)
	if rows == 0 {
		return Layout{}, fmt.Errorf("tiling: empty score matrix")
	}
	cols := len(scores[0])
	for _, row := range scores {
		if len(row) != cols {
			return Layout{}, fmt.Errorf("tiling: ragged score matrix")
		}
	}
	if n < 1 {
		return Layout{}, fmt.Errorf("tiling: n = %d, want >= 1", n)
	}
	p := newPrefix(scores)

	final := make([]UnitRect, 0, n)
	h := &splitHeap{}
	seed := bestSplit(p, UnitRect{R0: 0, C0: 0, R1: rows, C1: cols})
	if !seed.splittable {
		final = append(final, seed.rect)
	} else {
		heap.Push(h, seed)
	}
	// Invariant: len(final) + h.Len() rectangles currently partition the
	// grid; each heap entry carries its own best split.
	for len(final)+h.Len() < n && h.Len() > 0 {
		s := heap.Pop(h).(split)
		for _, child := range []UnitRect{s.a, s.b} {
			cs := bestSplit(p, child)
			if !cs.splittable {
				final = append(final, child)
			} else {
				heap.Push(h, cs)
			}
		}
	}
	for h.Len() > 0 {
		final = append(final, heap.Pop(h).(split).rect)
	}
	l := Layout{Rows: rows, Cols: cols, Tiles: final}
	if err := l.Validate(); err != nil {
		return Layout{}, fmt.Errorf("tiling: internal error: %w", err)
	}
	return l, nil
}
