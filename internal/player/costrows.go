package player

import (
	"math"
	"slices"

	"pano/internal/abr"
	"pano/internal/codec"
	"pano/internal/jnd"
	"pano/internal/manifest"
	"pano/internal/quality"
)

// The planner's cost rows are table reads (§6.3). A cell of a row is
// area · PMSEFromPSPNR(PowerLUT.PSPNR(ref, A)) — one Pow and one Exp —
// and a 30-tile chunk has 150 of them. Both transcendental steps are
// read from two immutable tables instead, filled once at package init
// and shared by every planner, manifest and session:
//
//   - expTab: e^x on [0, expMax], for A^b = e^(b·ln A) with ln A taken
//     once per tile;
//   - pmseTab: 255²·10^(−p/10) on [0, PSPNRCap] dB, the inversion of
//     Equation 1.
//
// Both are linearly interpolated. A chord of e^(cx) over a step h
// overshoots by at most h²c²/8 relative, so expTab is good to 1.9e-7
// (1.9e-5 dB on an estimate at the cap) and pmseTab to 4.0e-6
// (1.7e-5 dB): a cell is within 1e-4 dB of the exact one — the power
// fit it evaluates is itself dBs off the measured PSPNR (EXPERIMENTS.md,
// lut) — and the tests hold it to that. Whatever falls outside a table,
// or within capGuard of the cap, takes the exact formula, so a row is
// zero exactly where the exact row is.
//
// Only the planner reads the tables. EstimatePSPNR and PMSEFromPSPNR
// are the definition: the scorers (ViewportPSPNR, FramePSPNR*) keep
// calling them, because their numbers are the ones reported and pinned
// at 1e-9, and they run once per chunk rather than once per level of
// every tile.
const (
	expNodes  = 2048
	expMax    = 2.5
	pmseNodes = 4096

	expScale  = expNodes / expMax
	pmseScale = pmseNodes / quality.PSPNRCap

	// capGuard is the band around PSPNRCap inside which the table's
	// estimate cannot say on which side of the cap the exact one falls
	// (expTab moves an estimate by under 2e-5 dB); there the exact
	// formula decides.
	capGuard = 1e-3
)

var (
	expTab  [expNodes + 1]float64
	pmseTab [pmseNodes + 1]float64
)

func init() {
	for i := range expTab {
		expTab[i] = math.Exp(float64(i) / expScale)
	}
	// PMSEFromPSPNR's expression, not the function: the last node is the
	// curve's value at the cap, where the function jumps to 0.
	for i := range pmseTab {
		pmseTab[i] = 65025 * math.Exp(-(float64(i)/pmseScale)*(math.Ln10/10))
	}
}

// lerp reads a table at s, in units of its step: 0 ≤ s < len(tab)−1.
func lerp(tab []float64, s float64) float64 {
	i := int(s)
	return tab[i] + (s-float64(i))*(tab[i+1]-tab[i])
}

// planPMSE is PMSEFromPSPNR(lut.PSPNR(ref, a)) read from the tables;
// lnA is ln max(a, 1), which the caller takes once per tile.
func planPMSE(lut manifest.PowerLUT, ref, a, lnA float64) float64 {
	// The comparisons are written so that NaN fails them.
	if s := lut.BExp * lnA * expScale; s >= 0 && s < expNodes {
		v := ref * lut.ACoeff * lerp(expTab[:], s)
		switch {
		case v >= quality.PSPNRCap+capGuard:
			return 0
		case v >= 0 && v < quality.PSPNRCap-capGuard:
			return lerp(pmseTab[:], v*pmseScale)
		}
	}
	return PMSEFromPSPNR(lut.PSPNR(ref, a))
}

// CostRows builds the allocator's input for chunk k under view — one
// row per tile, Cost[l] = area · estimated PMSE at level l — into dst,
// which is grown when too short, and returns it. It, Plan and Plan's exit
// (tiedRow) build costs the one way: Plan allocates over exactly these.
func (p *PanoPlanner) CostRows(dst []abr.TileChoice, m *manifest.Video, k int, view ChunkView) []abr.TileChoice {
	tiles := m.Chunks[k].Tiles
	dst = slices.Grow(dst[:0], len(tiles))[:len(tiles)]
	prof := p.profile()
	// Equation 4's luminance factor depends on the view alone.
	p.buildRows(dst, tiles, view, prof, prof.Fl(view.LumaChange))
	return dst
}

// buildRows builds rows[i] from tiles[i] under view, fl being the view's
// luminance factor under prof.
func (p *PanoPlanner) buildRows(rows []abr.TileChoice, tiles []manifest.Tile, view ChunkView, prof *jnd.Profile, fl float64) {
	for i := range tiles {
		t := &tiles[i]
		ratio := p.actionRatio(t, view, prof, fl)
		lnA := lnRatio(ratio)
		area := float64(t.Rect.Area())
		rows[i].Bits = t.Bits
		for l := range rows[i].Cost {
			rows[i].Cost[l] = area * planPMSE(t.LUT[l], t.RefPSPNR[l], ratio, lnA)
		}
	}
}

// tiedRow is abr.TieRow for tile t, whose level s shares its bits with
// other levels, under view: flat, the table's answer for the tile, where
// it names one and the ratio is not NaN; otherwise TieRow over the
// tile's row with its costs built at those levels, as buildRows builds
// them.
func (p *PanoPlanner) tiedRow(t *manifest.Tile, s codec.Level, flat int8, view ChunkView, prof *jnd.Profile, fl float64) codec.Level {
	ratio := p.actionRatio(t, view, prof, fl)
	if flat >= 0 && ratio == ratio {
		return codec.Level(flat)
	}
	lnA := lnRatio(ratio)
	area := float64(t.Rect.Area())
	row := abr.TileChoice{Bits: t.Bits}
	for l := range row.Cost {
		if t.Bits[l] == t.Bits[s] {
			row.Cost[l] = area * planPMSE(t.LUT[l], t.RefPSPNR[l], ratio, lnA)
		}
	}
	return abr.TieRow(&row, s)
}

// actionRatio is tile t's action ratio under view, fl being the view's
// luminance factor under prof; 1 for the traditional ablation.
func (p *PanoPlanner) actionRatio(t *manifest.Tile, view ChunkView, prof *jnd.Profile, fl float64) float64 {
	if p.Traditional {
		return 1
	}
	f := FactorsFor(t, view)
	// prof.ActionRatio(f), in its order of multiplication; 1 + (A − 1)
	// rounds A the way the golden sessions' plans were computed.
	return 1 + (prof.Fv(f.SpeedDegS)*prof.Fd(f.DoFDiff)*fl - 1)
}

// lnRatio is ln max(ratio, 1), the planPMSE argument: a ratio below 1
// clamps to 1 (PowerLUT.PSPNR); NaN stays NaN and falls through to the
// exact formula.
func lnRatio(ratio float64) float64 {
	if !(ratio <= 1) {
		return math.Log(ratio)
	}
	return 0
}

func (p *PanoPlanner) profile() *jnd.Profile {
	if p.Profile == nil {
		return jnd.Default()
	}
	return p.Profile
}
