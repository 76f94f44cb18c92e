// Package jnd implements the paper's 360JND model (§4).
//
// The Just-Noticeable Difference at a pixel is the product of two parts:
//
//	JND(i,j) = C(i,j) * A(v, d, l)
//
// where C is the content-dependent JND of classic perceptual coding
// (Chou & Li 1995: luminance masking and texture masking computed from
// the original pixels), and A is the action-dependent ratio — the product
// of three multipliers driven by the user's viewpoint movement:
//
//	A(v, d, l) = Fv(v) * Fd(d) * Fl(l)
//
// with v the relative viewpoint-moving speed (deg/s), d the
// depth-of-field difference to the viewpoint-focused object (dioptre),
// and l the luminance change within the last ~5 seconds (grey levels).
// The multipliers are monotone non-decreasing, equal to 1 at zero, and
// calibrated so the 50%-extra-tolerance thresholds of §2.3 hold:
// Fv(10)=1.5, Fl(200)=1.5, Fd(0.7)=1.5.
package jnd

import (
	"math"

	"pano/internal/frame"
	"pano/internal/geom"
	"pano/internal/mathx"
	"pano/internal/parallel"
)

// Factors bundles the three viewpoint-driven quantities for one tile at
// one instant.
type Factors struct {
	SpeedDegS  float64 // relative viewpoint-moving speed, deg/s
	DoFDiff    float64 // depth-of-field difference, dioptre
	LumaChange float64 // luminance change in the last 5 s, grey levels
}

// Profile holds the empirical multiplier curves as piecewise-linear
// anchors. It is content-agnostic: the paper builds it once from a user
// study and reuses it for every video (§8.4).
type Profile struct {
	SpeedX, SpeedY []float64
	DoFX, DoFY     []float64
	LumaX, LumaY   []float64
}

// Default returns the profile calibrated against the paper's Figure 6
// curves and the §2.3 thresholds.
func Default() *Profile {
	return &Profile{
		// JND vs relative speed rises ~4x over 0..20 deg/s (Fig. 6 left),
		// passing 1.5x at 10 deg/s.
		SpeedX: []float64{0, 5, 10, 15, 20},
		SpeedY: []float64{1.0, 1.2, 1.5, 2.4, 4.0},
		// JND vs DoF difference rises ~5x over 0..2 dioptre (Fig. 6
		// right), passing 1.5x at 0.7 dioptre.
		DoFX: []float64{0, 0.35, 0.7, 1.33, 2.0},
		DoFY: []float64{1.0, 1.2, 1.5, 2.6, 5.0},
		// JND vs 5s luminance change rises ~1.9x over 0..240 grey
		// (Fig. 6 middle), passing 1.5x at 200 grey.
		LumaX: []float64{0, 70, 140, 200, 240},
		LumaY: []float64{1.0, 1.1, 1.25, 1.5, 1.9},
	}
}

// Fv returns the viewpoint-speed multiplier at v deg/s.
func (p *Profile) Fv(v float64) float64 {
	if v < 0 {
		v = -v
	}
	return mathx.Interp(v, p.SpeedX, p.SpeedY)
}

// Fd returns the DoF-difference multiplier at d dioptre.
func (p *Profile) Fd(d float64) float64 {
	if d < 0 {
		d = -d
	}
	return mathx.Interp(d, p.DoFX, p.DoFY)
}

// Fl returns the luminance-change multiplier at l grey levels.
func (p *Profile) Fl(l float64) float64 {
	if l < 0 {
		l = -l
	}
	return mathx.Interp(l, p.LumaX, p.LumaY)
}

// ActionRatio returns A(v,d,l) = Fv*Fd*Fl (Equation 4).
func (p *Profile) ActionRatio(f Factors) float64 {
	return p.Fv(f.SpeedDegS) * p.Fd(f.DoFDiff) * p.Fl(f.LumaChange)
}

// --- Content-dependent JND (Chou & Li 1995) ---

// LuminanceMasking returns the luminance-masking JND threshold for a
// background luminance bg in [0, 255]: high in the dark, minimal (~3)
// around mid-grey, rising gently for bright backgrounds.
func LuminanceMasking(bg float64) float64 {
	if bg < 0 {
		bg = 0
	}
	if bg > 255 {
		bg = 255
	}
	if bg <= 127 {
		return 17*(1-sqrt(bg/127)) + 3
	}
	return 3.0/128.0*(bg-127) + 3
}

// TextureMasking returns the texture-masking JND component for a mean
// local gradient magnitude g: busier regions hide more distortion.
func TextureMasking(g float64) float64 {
	const slope = 0.25
	return slope * g
}

// ContentJNDBlock returns the content-dependent JND C for a pixel block:
// the maximum of luminance masking (from the block's mean luminance) and
// texture masking (from its mean gradient), per Chou–Li.
func ContentJNDBlock(meanLuma, gradient float64) float64 {
	lm := LuminanceMasking(meanLuma)
	tm := TextureMasking(gradient)
	if tm > lm {
		return tm
	}
	return lm
}

// FieldBlockSize is the block granularity at which ContentField computes
// the content JND. 8 matches the Chou–Li neighborhood scale.
const FieldBlockSize = 8

// ContentBlocks computes the content-dependent JND over rectangle r of
// the original frame at its native granularity: one value per
// FieldBlockSize×FieldBlockSize block (the last block of a row or
// column may be partial), row-major with cols blocks per row. The pixel
// at (x, y) of r has the value at (y/FieldBlockSize)*cols +
// x/FieldBlockSize. Block rows are computed in parallel on the
// process-default worker count.
func ContentBlocks(orig *frame.Frame, r geom.Rect) (blocks []float64, cols int) {
	return contentBlocks(orig, r, parallel.Workers())
}

func contentBlocks(orig *frame.Frame, r geom.Rect, workers int) (blocks []float64, cols int) {
	w, h := r.W(), r.H()
	if w <= 0 || h <= 0 {
		return nil, 0
	}
	cols = (w + FieldBlockSize - 1) / FieldBlockSize
	rows := (h + FieldBlockSize - 1) / FieldBlockSize
	blocks = make([]float64, rows*cols)
	parallel.ForWorkers(workers, rows, func(br int) {
		y0 := r.Y0 + br*FieldBlockSize
		for bx := 0; bx < cols; bx++ {
			x0 := r.X0 + bx*FieldBlockSize
			block := geom.Rect{
				X0: x0, Y0: y0,
				X1: minInt(x0+FieldBlockSize, r.X1),
				Y1: minInt(y0+FieldBlockSize, r.Y1),
			}
			blocks[br*cols+bx] = ContentJNDBlock(orig.MeanLuma(block), orig.GradientEnergy(block))
		}
	})
	return blocks, cols
}

// ContentField is ContentBlocks with one value per pixel of r (block
// values replicated), laid out row-major with width r.W(). The result
// is bit-identical for every worker count because each block and each
// pixel row is written by exactly one worker.
func ContentField(orig *frame.Frame, r geom.Rect) []float64 {
	return ContentFieldWorkers(orig, r, parallel.Workers())
}

// ContentFieldWorkers is ContentField with an explicit worker count
// (<= 1 runs serially). The serial≡parallel property tests inject
// counts here.
func ContentFieldWorkers(orig *frame.Frame, r geom.Rect, workers int) []float64 {
	blocks, cols := contentBlocks(orig, r, workers)
	if blocks == nil {
		return nil
	}
	w := r.W()
	out := make([]float64, w*r.H())
	parallel.ForWorkers(workers, r.H(), func(y int) {
		src := blocks[y/FieldBlockSize*cols:]
		for x := range out[y*w : (y+1)*w] {
			out[y*w+x] = src[x/FieldBlockSize]
		}
	})
	return out
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
