// Package quality implements the perceptual quality metrics of §4:
// PSNR, and PSPNR with pluggable JND (traditional content-only JND or
// the 360JND that also weighs viewpoint movement), plus the PSPNR→MOS
// band mapping of Table 3.
package quality

import (
	"fmt"
	"math"

	"pano/internal/frame"
	"pano/internal/geom"
	"pano/internal/jnd"
	"pano/internal/parallel"
)

// PSPNRCap bounds reported PSPNR; with zero perceptible noise the metric
// is unbounded, and the paper's plots top out well below this.
const PSPNRCap = 100.0

// PSNR returns the peak signal-to-noise ratio in dB for a mean squared
// error, capped at PSPNRCap for near-zero error.
func PSNR(mse float64) float64 {
	if mse <= 0 {
		return PSPNRCap
	}
	p := 20 * math.Log10(255/math.Sqrt(mse))
	return math.Min(p, PSPNRCap)
}

// PSPNRFromPMSE converts a perceptible mean squared error M into PSPNR
// per Equation 1: P = 20·log10(255/sqrt(M)).
func PSPNRFromPMSE(pmse float64) float64 { return PSNR(pmse) }

// pmseBandRows is the fixed row-band granularity of the parallel PMSE
// reduction. Band boundaries depend only on the frame height, so the
// banded sum is bit-identical for every worker count (the partial sums
// are combined in band order).
const pmseBandRows = 32

// PMSE computes the perceptible mean squared error of Equations 2–3 over
// matching frames, given a per-pixel JND field (row-major, same size):
// only error beyond the JND counts, and it counts by its excess. Row
// bands reduce in parallel on the process-default worker count.
func PMSE(orig, enc *frame.Frame, jndField []float64) (float64, error) {
	return PMSEWorkers(orig, enc, jndField, parallel.Workers())
}

// PMSEWorkers is PMSE with an explicit worker count (<= 1 runs
// serially). Results are bit-identical across worker counts.
func PMSEWorkers(orig, enc *frame.Frame, jndField []float64, workers int) (float64, error) {
	if orig.W != enc.W || orig.H != enc.H {
		return 0, fmt.Errorf("quality: frame size mismatch %dx%d vs %dx%d", orig.W, orig.H, enc.W, enc.H)
	}
	if len(jndField) != len(orig.Pix) {
		return 0, fmt.Errorf("quality: jnd field len %d, want %d", len(jndField), len(orig.Pix))
	}
	if len(orig.Pix) == 0 {
		return 0, nil
	}
	w := orig.W
	sums := make([]float64, parallel.NumBands(orig.H, pmseBandRows))
	parallel.ForBands(workers, orig.H, pmseBandRows, func(b, y0, y1 int) {
		var s float64
		for i := y0 * w; i < y1*w; i++ {
			diff := math.Abs(float64(orig.Pix[i]) - float64(enc.Pix[i]))
			if diff >= jndField[i] && diff > 0 {
				ex := diff - jndField[i]
				s += ex * ex
			}
		}
		sums[b] = s
	})
	var sum float64
	for _, s := range sums {
		sum += s
	}
	return sum / float64(len(orig.Pix)), nil
}

// ScaleField multiplies every entry of a JND field by k, returning a new
// slice. It implements the content/action decomposition of Equation 4:
// the content field is computed once and the action ratio applied per
// viewpoint state.
func ScaleField(field []float64, k float64) []float64 {
	out := make([]float64, len(field))
	for i, v := range field {
		out[i] = v * k
	}
	return out
}

// TilePMSE is the perceptible MSE (Equations 2–4) of region r, before a
// chunk pools it (PMSEPool): orig vs enc (enc is the distorted rendering
// of the same region, sized r.W() x r.H()), with the content JND from
// orig scaled by the action ratio of factors f under profile p; a nil
// profile gives traditional (content-only) PMSE. The content field is
// served from cache under (chunkKey, r). chunkKey must identify the
// original pixels (e.g. video name + frame index); a nil cache computes
// the field fresh. PSPNRFromPMSE turns it into the tile's PSPNR.
func TilePMSE(p *jnd.Profile, cache *jnd.FieldCache, chunkKey string, orig *frame.Frame, enc *frame.Frame, r geom.Rect, f jnd.Factors) (float64, error) {
	content := cache.ContentField(chunkKey, orig, r)
	ratio := 1.0
	if p != nil {
		ratio = p.ActionRatio(f)
	}
	field := ScaleField(content, ratio)
	sub, err := orig.Region(r)
	if err != nil {
		return 0, err
	}
	return PMSE(sub, enc, field)
}

// PMSEPool pools tile PMSEs into a chunk's PSPNR (§6.1): Equation 1 of
// their mean weighted by area (or viewport overlap). Every chunk-level
// PSPNR, estimated or measured, pools through it; the zero value is empty.
type PMSEPool struct{ num, den float64 }

// Add pools pmse under weight w.
func (p *PMSEPool) Add(w, pmse float64) {
	p.num += w * pmse
	p.den += w
}

// PSPNR returns the pooled PSPNR, or 0 when no weight was added.
func (p *PMSEPool) PSPNR() float64 {
	if p.den == 0 {
		return 0
	}
	return PSPNRFromPMSE(p.num / p.den)
}

// MOS bands of Table 3: PSPNR ≤45 → 1, 46–53 → 2, 54–61 → 3,
// 62–69 → 4, ≥70 → 5.
var mosBands = [...]float64{45, 53, 61, 69}

// MOSFromPSPNR maps a 360JND-based PSPNR value to the mean opinion score
// band of Table 3.
func MOSFromPSPNR(p float64) int {
	for i, hi := range mosBands {
		if p <= hi {
			return i + 1
		}
	}
	return 5
}

// PSPNRBuckets are histogram bounds for per-chunk PSPNR metrics,
// spanning the Table 3 MOS bands (≤45 dB is MOS 1, ≥70 dB is MOS 5)
// with headroom on both sides.
var PSPNRBuckets = []float64{30, 35, 40, 45, 50, 55, 60, 65, 70, 75, 80, 85}
