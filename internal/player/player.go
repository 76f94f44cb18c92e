// Package player implements the client-side adaptation logic of §6–7:
// viewpoint-driven factor estimation from the manifest, the PSPNR
// estimator backed by the compressed lookup table, and the per-tile
// quality planners for Pano and the baselines (Flare-style
// viewport-driven, ClusTile, whole-video).
//
// Everything here is pure computation over the manifest and the
// client's own viewpoint history — no pixels and no network — which is
// exactly the information a DASH client legitimately has (§6.2).
package player

import (
	"math"
	"slices"
	"sync"

	"pano/internal/abr"
	"pano/internal/codec"
	"pano/internal/geom"
	"pano/internal/jnd"
	"pano/internal/manifest"
	"pano/internal/quality"
)

// ChunkView captures what the client believes about the viewpoint for
// an upcoming chunk: the predicted center and the conservative factor
// estimates of §6.1.
type ChunkView struct {
	// Center is the predicted viewpoint at the chunk's midpoint.
	Center geom.Angle
	// SpeedLB is the conservative lower bound of viewpoint speed
	// (deg/s): the minimum observed over the recent window.
	SpeedLB float64
	// LumaChange is the luminance change of the viewport over the last
	// ~5 s (grey levels), a lower-bound style estimate.
	LumaChange float64
	// FocusDoF is the depth-of-field at the predicted viewpoint
	// (dioptre), from the tile the viewpoint lands in.
	FocusDoF float64
}

// TileAt returns the index of the chunk's tile containing angle a, or 0
// if no tile matches (which cannot happen on a valid manifest).
func TileAt(m *manifest.Video, k int, a geom.Angle) int {
	i, _ := m.Chunks[k].TileAt(geom.Frame{W: m.W, H: m.H}.ToPixel(a))
	return i
}

// FactorsFor derives the 360JND factors for one tile of chunk k under a
// predicted view, using only manifest information:
//
//   - relative speed: the viewpoint's lower-bound speed against the
//     tile's mean object speed. The bound keeps the estimate
//     conservative — an underestimated ratio yields a higher-than-
//     necessary quality, never a visible degradation (§6.1).
//   - DoF difference: |tile DoF − focused DoF|.
//   - luminance change: the viewport's recent luminance swing.
func FactorsFor(t *manifest.Tile, view ChunkView) jnd.Factors {
	rel := view.SpeedLB - t.ObjSpeedDeg
	if rel < 0 {
		// The object may be moving with the viewpoint: the
		// conservative relative speed is zero.
		rel = 0
	}
	return jnd.Factors{
		SpeedDegS:  rel,
		DoFDiff:    math.Abs(t.AvgDoF - view.FocusDoF),
		LumaChange: view.LumaChange,
	}
}

// EstimatePSPNR returns the client's PSPNR estimate for a tile at a
// level given an action ratio, via the manifest's compressed lookup
// table (§6.2): the online half of Figure 11.
func EstimatePSPNR(t *manifest.Tile, l codec.Level, actionRatio float64) float64 {
	return t.LUT[l].PSPNR(t.RefPSPNR[l], actionRatio)
}

// PMSEFromPSPNR inverts Equation 1 so estimates can be aggregated
// area-weighted.
func PMSEFromPSPNR(p float64) float64 {
	if p >= quality.PSPNRCap {
		return 0
	}
	// 255² · 10^(-p/10), via Exp: this sits in the innermost loop of
	// every planner (tiles × levels × chunks × sessions) and Exp is
	// ~3x cheaper than Pow at the same double precision.
	return 65025 * math.Exp(-p*(math.Ln10/10))
}

// Visibility returns the fraction of the tile covered by the viewport
// footprint around center, expanded by padDeg on each side to absorb
// prediction error, blended with a smooth angular-distance falloff so
// tiles just beyond the pad keep a graded weight (viewpoint prediction
// can be tens of degrees off; a hard cutoff makes misses catastrophic).
// The result is floored at floor so even antipodal tiles retain a
// baseline quality.
func Visibility(m *manifest.Video, t *manifest.Tile, center geom.Angle, padDeg, floor float64) float64 {
	vp := geom.Viewport{
		Center:    center,
		WidthDeg:  110 + 2*padDeg,
		HeightDeg: 90 + 2*padDeg,
	}
	g := geom.Frame{W: m.W, H: m.H}
	overlap := 0
	for _, r := range vp.Footprint(g) {
		overlap += t.Rect.OverlapArea(r)
	}
	v := float64(overlap) / float64(t.Rect.Area())

	// Distance tail: half weight at the padded edge declining to the
	// floor ~75° further out.
	tcx, tcy := (t.Rect.X0+t.Rect.X1)/2, (t.Rect.Y0+t.Rect.Y1)/2
	d := geom.GreatCircleDeg(center, g.ToAngle(tcx, tcy))
	edge := 55 + padDeg
	if d > edge {
		tail := floor + (0.5-floor)*math.Max(0, 1-(d-edge)/75)
		if tail > v {
			v = tail
		}
	}
	if v < floor {
		return floor
	}
	return v
}

// Planner decides per-tile quality levels for one chunk under a bit
// budget. Implementations are the systems compared in §8.
type Planner interface {
	// Name identifies the system in results.
	Name() string
	// Plan returns one level per tile of chunk k.
	Plan(m *manifest.Video, k int, view ChunkView, budget float64) abr.Allocation
}

// PanoPlanner is Pano's tile-level allocator (§6.1): minimize the
// area-weighted sum of perceptible distortion Σ Sₜ·Mₜ(qₜ) over all
// tiles, with PSPNR estimated via 360JND and the manifest lookup table.
// The viewpoint influences the plan only through the per-tile factors —
// exactly the paper's formulation, with no viewport-distance term. Every
// session plans with the one search, abr.AllocatePruned: sim, the HTTP
// client and the swarm's populations alike.
type PanoPlanner struct {
	// Profile supplies the multipliers for factor→ratio conversion.
	Profile *jnd.Profile
	// Traditional disables the action ratio (A = 1 always), yielding
	// the "Pano (traditional PSPNR)" ablation of Figure 18a.
	Traditional bool
}

// NewPanoPlanner returns the default Pano planner.
func NewPanoPlanner() *PanoPlanner {
	return &PanoPlanner{Profile: jnd.Default()}
}

// Name implements Planner.
func (p *PanoPlanner) Name() string {
	if p.Traditional {
		return "pano-traditional-jnd"
	}
	return "pano"
}

// costRowsPool recycles PanoPlanner.Plan's allocator input. It is
// package-level because one planner value is shared by concurrent
// sessions (every swarm worker calls the same Planner).
var costRowsPool = sync.Pool{New: func() any { return new([]abr.TileChoice) }}

// Plan implements Planner: abr.AllocatePruned over CostRows. The chunk's
// floor comes from the manifest's table (tableOf), so a budget that
// affords no upgrade over the all-smallest plan is answered by its
// Starved before any cost is built; then only a tile with levels tied at
// its smallest size needs its costs, at those levels, and none where the
// table names its level (flatLevel). Past the exit, the rows are built
// and searched from the same floor.
func (p *PanoPlanner) Plan(m *manifest.Video, k int, view ChunkView, budget float64) abr.Allocation {
	c := tableOf(m).chunk(m, k)
	tiles := m.Chunks[k].Tiles
	prof := p.profile()
	// Equation 4's luminance factor depends on the view alone.
	fl := prof.Fl(view.LumaChange)
	if a := c.floor.Starved(budget, func(i int) codec.Level {
		return p.tiedRow(&tiles[i], c.floor.Small[i], c.flat[i], view, prof, fl)
	}); a != nil {
		return a
	}
	rows := costRowsPool.Get().(*[]abr.TileChoice)
	defer costRowsPool.Put(rows)
	*rows = slices.Grow((*rows)[:0], len(tiles))[:len(tiles)]
	p.buildRows(*rows, tiles, view, prof, fl)
	return c.floor.AllocatePruned(*rows, budget, 0)
}

// MeanRefPSPNR returns the area-weighted mean reference PSPNR of chunk
// k at level l — the chunk-level quality axis the MPC horizon uses
// (the session loop normalizes it to MOS-like units).
func MeanRefPSPNR(m *manifest.Video, k int, l codec.Level) float64 {
	var num, den float64
	for i := range m.Chunks[k].Tiles {
		t := &m.Chunks[k].Tiles[i]
		a := float64(t.Rect.Area())
		num += a * t.RefPSPNR[l]
		den += a
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// ViewportPlanner is the viewport-driven baseline (Flare/ClusTile
// allocation): it minimizes visibility-weighted plain MSE — quality is
// a function of the distance to the viewpoint only, with no perceptual
// model (§8.1's baselines).
type ViewportPlanner struct {
	// SystemName distinguishes "flare" (uniform tiling manifest) from
	// "clustile" (clustered tiling manifest); the allocation logic is
	// shared.
	SystemName string
	// PadDeg and VisibilityFloor mirror PanoPlanner's weighting.
	PadDeg          float64
	VisibilityFloor float64
}

// NewViewportPlanner returns the Flare-style baseline planner.
func NewViewportPlanner(name string) *ViewportPlanner {
	return &ViewportPlanner{SystemName: name, PadDeg: 25, VisibilityFloor: 0.08}
}

// Name implements Planner.
func (p *ViewportPlanner) Name() string { return p.SystemName }

// Plan implements Planner. Unlike Pano, the baseline uses the simple
// greedy utility allocator — viewport-driven systems assign quality by
// distance class rather than solving the PSPNR program.
func (p *ViewportPlanner) Plan(m *manifest.Video, k int, view ChunkView, budget float64) abr.Allocation {
	tiles := make([]abr.TileChoice, len(m.Chunks[k].Tiles))
	for i := range m.Chunks[k].Tiles {
		t := &m.Chunks[k].Tiles[i]
		vis := Visibility(m, t, view.Center, p.PadDeg, p.VisibilityFloor)
		area := float64(t.Rect.Area())
		for l := 0; l < codec.NumLevels; l++ {
			tiles[i].Bits[l] = t.Bits[l]
			tiles[i].Cost[l] = vis * area * PMSEFromPSPNR(t.PSNR[l])
		}
	}
	return abr.AllocateGreedy(tiles, budget)
}

// WholePlanner streams the entire panorama at one uniform level — the
// "whole video" reference point of Figures 1 and 15.
type WholePlanner struct{}

// Name implements Planner.
func (WholePlanner) Name() string { return "whole-video" }

// Plan implements Planner.
func (WholePlanner) Plan(m *manifest.Video, k int, _ ChunkView, budget float64) abr.Allocation {
	n := len(m.Chunks[k].Tiles)
	a := make(abr.Allocation, n)
	// Highest uniform level that fits.
	for l := 0; l < codec.NumLevels; l++ {
		if m.ChunkBits(k, codec.Level(l)) <= budget || l == codec.NumLevels-1 {
			for i := range a {
				a[i] = codec.Level(l)
			}
			break
		}
	}
	return a
}
