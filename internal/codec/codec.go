// Package codec simulates a tile-based 360° video encoder.
//
// The paper encodes tiles with x264 at five QP levels {22,27,32,37,42}
// (§8.1). This package substitutes a block-transform quantization model
// that preserves the two encoder properties Pano's design depends on:
//
//  1. Rate–distortion: bits fall and distortion grows as QP rises, with
//     busier (high-variance, fast-moving) content costing more bits and
//     distorting more at a given QP. Distorted pixels are actually
//     produced, so PSNR/PSPNR downstream are measured, not assumed.
//  2. Tiling overhead: each tile pays a fixed header and loses spatial
//     prediction at its boundary blocks, so fine grids inflate the total
//     size (Figure 4).
//
// The model is intra-frame per block plus a temporal-activity scaling
// across a chunk's frames, standing in for inter prediction.
package codec

import (
	"fmt"
	"math"
	"sync"

	"pano/internal/frame"
	"pano/internal/geom"
)

// QPLevels are the five quantization-parameter operating points used
// throughout the evaluation, ordered from highest quality to lowest.
var QPLevels = [...]int{22, 27, 32, 37, 42}

// NumLevels is the number of quality levels per tile.
const NumLevels = len(QPLevels)

// Level indexes a quality level: 0 is the highest quality (QP 22),
// NumLevels-1 the lowest (QP 42).
type Level int

// QP returns the quantization parameter for the level.
func (l Level) QP() int {
	if l < 0 {
		l = 0
	}
	if int(l) >= NumLevels {
		l = Level(NumLevels - 1)
	}
	return QPLevels[l]
}

// Valid reports whether the level is within range.
func (l Level) Valid() bool { return l >= 0 && int(l) < NumLevels }

// String implements fmt.Stringer.
func (l Level) String() string { return fmt.Sprintf("L%d(QP%d)", int(l), l.QP()) }

// QStep returns the quantization step size for a QP, following the
// H.264 relationship Δ ≈ 2^((QP-4)/6).
func QStep(qp int) float64 {
	return math.Pow(2, float64(qp-4)/6)
}

// Encoder models the tile encoder. The zero value is not usable; call
// NewEncoder.
type Encoder struct {
	// BlockSize is the transform block size in pixels.
	BlockSize int
	// HeaderBits is the fixed per-tile per-chunk overhead (headers,
	// parameter sets, segment addressing).
	HeaderBits float64
	// BoundaryPenalty multiplies the bit cost of blocks on a tile
	// boundary, which lose cross-block prediction.
	BoundaryPenalty float64
	// TemporalFloor and TemporalCeil bound the per-frame cost of
	// non-key frames relative to the key frame, as a function of how
	// much of the tile changes between frames.
	TemporalFloor float64
	TemporalCeil  float64
}

// NewEncoder returns an encoder with the calibration used across the
// repository (see DESIGN.md §4).
func NewEncoder() *Encoder {
	return &Encoder{
		BlockSize:       4,
		HeaderBits:      120,
		BoundaryPenalty: 1.55,
		TemporalFloor:   0.05,
		TemporalCeil:    0.5,
	}
}

// quantMean and quantResidual are the block quantizer, stated once: a
// block's mean is quantized at half the step and each pixel's residual
// from the mean at the full step.
func quantMean(mean, step float64) float64 {
	dcStep := step / 2
	return math.Round(mean/dcStep) * dcStep
}

func quantResidual(res, step float64) float64 {
	return math.Round(res/step) * step
}

// coefBits is the bit cost of one residual coefficient at the given
// step: ~2*log2(|level|+1)+1 bits when it quantizes to a nonzero level.
func coefBits(res, step float64) float64 {
	level := math.Round(res / step)
	if level == 0 {
		return 0
	}
	return 2*math.Log2(math.Abs(level)+1) + 1
}

// reconstruct returns the decoded pixel for a quantized block mean and
// a quantized residual: their sum clamped to [0, 255] and rounded half
// up. v minus its integer part is exact in float64 and so is twice it,
// so this is math.Round for every v in range, without a data-dependent
// branch.
func reconstruct(qMean, qRes float64) uint8 {
	v := qMean + qRes
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	u := int(v)
	frac := v - float64(u)
	return uint8(u + int(frac+frac))
}

// quantizer is the block quantizer of one (block size, QP). For a full
// B×B block with B a power of two, the mean Σ/B² and the residual
// p − Σ/B² = (B²·p − Σ)/B² are exact in float64, so the quantized mean
// is a function of the integer Σ ∈ [0, 255·B²] and the quantized
// residual and its bit cost functions of the integer
// n = B²·p − Σ ∈ [−255·B², 255·B²]: those functions are tabulated, the
// first two as the indices a = round(mean/dcStep) and 2b =
// 2·round(res/step), because the decoded pixel reconstruct(a·dcStep,
// b·step) depends on a + 2b alone (DESIGN.md §4): it is
// pix[mean[Σ]+res[n]]. Partial blocks — and every block when B or the QP
// does not qualify, the tables then being nil — evaluate them directly.
type quantizer struct {
	step  float64
	block int       // B
	off   int       // 255·B²: the index of n = 0 in res and bits
	mean  []int16   // a + 2·max b by Σ, so that mean + res ≥ 0
	res   []int16   // 2b by n+off
	pix   []uint8   // the decoded pixel by mean + res
	bits  []float64 // coefBits by n+off
}

// maxTableBlock bounds the table size (≈ 255·B² × 22 bytes per QP).
const maxTableBlock = 8

type quantizerKey struct{ block, qp int }

// quantizers memoizes quantizer by (block size, QP); entries are pure
// functions of their key.
var quantizers sync.Map

// quantizer returns the encoder's quantizer at qp, building its tables
// on first use.
func (e *Encoder) quantizer(qp int) *quantizer {
	key := quantizerKey{e.BlockSize, qp}
	if q, ok := quantizers.Load(key); ok {
		return q.(*quantizer)
	}
	b := e.BlockSize
	q := &quantizer{step: QStep(qp), block: b}
	if b&(b-1) == 0 && b <= maxTableBlock {
		q.tabulate()
	}
	actual, _ := quantizers.LoadOrStore(key, q)
	return actual.(*quantizer)
}

// tabulate fills the tables, unless two index pairs (a, b) the quantizer
// can emit share an a + 2b and decode differently: enumerated, not argued.
func (q *quantizer) tabulate() {
	if !(q.step >= 0.1) { // the largest index, ≈ 1530/step, must fit int16
		return
	}
	dcStep, area := q.step/2, q.block*q.block
	maxA, maxB := int(math.Round(255/dcStep)), int(math.Round(255/q.step))
	pix := make([]uint8, maxA+4*maxB+1)
	for k := range pix {
		pix[k] = reconstruct(float64(k-2*maxB)*dcStep, 0)
	}
	for a := 0; a <= maxA; a++ {
		for b := -maxB; b <= maxB; b++ {
			if reconstruct(float64(a)*dcStep, float64(b)*q.step) != pix[a+2*b+2*maxB] {
				return
			}
		}
	}
	q.off, q.pix, q.mean = 255*area, pix, make([]int16, 255*area+1)
	for sum := range q.mean {
		q.mean[sum] = int16(math.Round(float64(sum)/float64(area)/dcStep)) + int16(2*maxB)
	}
	q.res, q.bits = make([]int16, 2*q.off+1), make([]float64, 2*q.off+1)
	for i := range q.res {
		res := float64(i-q.off) / float64(area)
		q.res[i] = 2 * int16(math.Round(res/q.step))
		q.bits[i] = coefBits(res, q.step)
	}
}

// tabulated reports whether a w×h block can read the tables.
func (q *quantizer) tabulated(w, h int) bool {
	return q.mean != nil && w == q.block && h == q.block
}

func (e *Encoder) checkBlockSize() error {
	if e.BlockSize <= 0 {
		return fmt.Errorf("codec: encoder block size %d, want > 0 (use NewEncoder)", e.BlockSize)
	}
	return nil
}

// blockSum returns the pixel sum of the w×h block whose top-left pixel
// is pix[0], in a plane of the given stride.
func blockSum(pix []uint8, stride, w, h int) int {
	sum := 0
	for y := 0; y < h; y++ {
		for _, p := range pix[y*stride : y*stride+w] {
			sum += int(p)
		}
	}
	return sum
}

// decode writes the decoded pixels of the w×h block at src[0], whose
// pixel sum is sum, to the same positions of dst (which may be src).
func (q *quantizer) decode(dst, src []uint8, stride, w, h, sum int) {
	area := w * h
	if q.tabulated(w, h) {
		a, res := int(q.mean[sum]), q.res[q.off-sum:]
		for y := 0; y < h; y++ {
			out := dst[y*stride : y*stride+w]
			for x, p := range src[y*stride : y*stride+w] {
				out[x] = q.pix[a+int(res[area*int(p)])]
			}
		}
		return
	}
	mean := float64(sum) / float64(area)
	qMean := quantMean(mean, q.step)
	for y := 0; y < h; y++ {
		out := dst[y*stride : y*stride+w]
		for x, p := range src[y*stride : y*stride+w] {
			out[x] = reconstruct(qMean, quantResidual(float64(p)-mean, q.step))
		}
	}
}

// DistortRegion returns a copy of region r of f with the quantization
// distortion of the given QP applied. The region must lie within f.
func (e *Encoder) DistortRegion(f *frame.Frame, r geom.Rect, qp int) (*frame.Frame, error) {
	if err := e.checkBlockSize(); err != nil {
		return nil, err
	}
	sub, err := f.Region(r)
	if err != nil {
		return nil, err
	}
	q, b := e.quantizer(qp), e.BlockSize
	for by := 0; by < sub.H; by += b {
		for bx := 0; bx < sub.W; bx += b {
			blk := sub.Pix[by*sub.W+bx:]
			w, h := minInt(b, sub.W-bx), minInt(b, sub.H-by)
			q.decode(blk, blk, sub.W, w, h, blockSum(blk, sub.W, w, h))
		}
	}
	return sub, nil
}

// ErrorPlanes fills planes with |original − decoded| per pixel of f at
// every quality level: level l occupies planes[l*W*H:(l+1)*W*H],
// row-major like f.Pix. The decoded pixels are DistortRegion's over the
// whole frame; each block is visited once for all levels, and a flat
// pass turns the decoded pixels the planes then hold into errors.
func (e *Encoder) ErrorPlanes(f *frame.Frame, planes []uint8) error {
	if err := e.checkBlockSize(); err != nil {
		return err
	}
	size := f.W * f.H
	if len(planes) != NumLevels*size {
		return fmt.Errorf("codec: error planes hold %d bytes, want %d", len(planes), NumLevels*size)
	}
	var qs [NumLevels]*quantizer
	for l := range qs {
		qs[l] = e.quantizer(Level(l).QP())
	}
	b := e.BlockSize
	for by := 0; by < f.H; by += b {
		for bx := 0; bx < f.W; bx += b {
			at := by*f.W + bx
			src := f.Pix[at:]
			w, h := minInt(b, f.W-bx), minInt(b, f.H-by)
			sum := blockSum(src, f.W, w, h)
			for l, q := range qs {
				q.decode(planes[l*size+at:], src, f.W, w, h, sum)
			}
		}
	}
	for l := range qs {
		plane := planes[l*size : (l+1)*size]
		for i, p := range f.Pix {
			d := int(p) - int(plane[i])
			sign := d >> 63 // branch-free |d|: the sign is a coin flip
			plane[i] = uint8((d ^ sign) - sign)
		}
	}
	return nil
}

// blockBits estimates the bit cost of the w×h block at pix[0] from its
// residual levels: coefBits per coefficient plus a small DC cost.
// boundary marks blocks on the tile edge.
func (e *Encoder) blockBits(q *quantizer, pix []uint8, stride, w, h int, boundary bool) float64 {
	sum, area := blockSum(pix, stride, w, h), w*h
	bits := 4.0 // quantized DC / mode signalling
	if q.tabulated(w, h) {
		tab := q.bits[q.off-sum:]
		for y := 0; y < h; y++ {
			for _, p := range pix[y*stride : y*stride+w] {
				bits += tab[area*int(p)]
			}
		}
	} else {
		mean := float64(sum) / float64(area)
		for y := 0; y < h; y++ {
			for _, p := range pix[y*stride : y*stride+w] {
				bits += coefBits(float64(p)-mean, q.step)
			}
		}
	}
	if boundary {
		bits *= e.BoundaryPenalty
	}
	return bits
}

// FrameRegionBits estimates the intra bit cost of encoding region r of
// frame f at the given QP, treating r as one tile (boundary blocks pay
// the prediction-loss penalty). The per-tile header is not included.
// The region is clipped to the frame. It panics on an encoder without a
// block size (the zero value; use NewEncoder).
func (e *Encoder) FrameRegionBits(f *frame.Frame, r geom.Rect, qp int) float64 {
	if err := e.checkBlockSize(); err != nil {
		panic(err)
	}
	r = r.Intersect(geom.Rect{X1: f.W, Y1: f.H})
	q, b := e.quantizer(qp), e.BlockSize
	var bits float64
	for by := r.Y0; by < r.Y1; by += b {
		for bx := r.X0; bx < r.X1; bx += b {
			boundary := bx == r.X0 || by == r.Y0 || bx+b >= r.X1 || by+b >= r.Y1
			bits += e.blockBits(q, f.Pix[by*f.W+bx:], f.W, minInt(b, r.X1-bx), minInt(b, r.Y1-by), boundary)
		}
	}
	return bits
}

// TemporalActivity returns the fraction of pixels in region r that
// change by more than a small threshold between two frames, clamped to
// the encoder's temporal bounds. It scales the non-key-frame cost.
func (e *Encoder) TemporalActivity(a, b *frame.Frame, r geom.Rect) float64 {
	const thresh = 6
	changed, total := 0, 0
	for y := r.Y0; y < r.Y1; y++ {
		for x := r.X0; x < r.X1; x++ {
			d := int(a.At(x, y)) - int(b.At(x, y))
			if d < 0 {
				d = -d
			}
			if d > thresh {
				changed++
			}
			total++
		}
	}
	if total == 0 {
		return e.TemporalFloor
	}
	act := float64(changed) / float64(total)
	if act < e.TemporalFloor {
		act = e.TemporalFloor
	}
	if act > e.TemporalCeil {
		act = e.TemporalCeil
	}
	return act
}

// TileChunkBits estimates the total bit cost of one tile over one chunk:
// header + key-frame cost + (frames-1) inter frames scaled by temporal
// activity. key is the chunk's first frame; next is a later frame used
// to estimate activity (pass key again for a static estimate).
func (e *Encoder) TileChunkBits(key, next *frame.Frame, r geom.Rect, qp int, framesPerChunk int) float64 {
	return e.chunkBits(e.FrameRegionBits(key, r, qp), e.TemporalActivity(key, next, r), framesPerChunk)
}

// TileLevelBits returns TileChunkBits at every quality level. Temporal
// activity does not depend on the QP and is measured once.
func (e *Encoder) TileLevelBits(key, next *frame.Frame, r geom.Rect, framesPerChunk int) [NumLevels]float64 {
	act := e.TemporalActivity(key, next, r)
	var bits [NumLevels]float64
	for l := range bits {
		bits[l] = e.chunkBits(e.FrameRegionBits(key, r, Level(l).QP()), act, framesPerChunk)
	}
	return bits
}

func (e *Encoder) chunkBits(intra, act float64, framesPerChunk int) float64 {
	inter := intra * act * float64(framesPerChunk-1)
	return e.HeaderBits + intra + inter
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
