// Package frame provides luma-plane (Y) frame buffers for the Pano
// pipeline. Perceptual quality in the paper (PSNR, PSPNR, JND) is
// computed on the luma plane, so frames here carry a single 8-bit channel
// laid out row-major, matching how the paper's client stitches per-tile
// YUV buffers with row-major memcpy (§7).
package frame

import (
	"errors"
	"fmt"
	"image"

	"pano/internal/geom"
)

// ErrBounds is returned when a region falls outside a frame.
var ErrBounds = errors.New("frame: region out of bounds")

// Frame is a single-channel 8-bit equirectangular image.
type Frame struct {
	W, H int
	Pix  []uint8 // len == W*H, row-major
}

// New allocates a zeroed frame of the given dimensions.
func New(w, h int) *Frame {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("frame: invalid dimensions %dx%d", w, h))
	}
	return &Frame{W: w, H: h, Pix: make([]uint8, w*h)}
}

// At returns the pixel at (x, y). Out-of-range coordinates wrap in x
// (the equirectangular seam) and clamp in y.
func (f *Frame) At(x, y int) uint8 {
	x = wrap(x, f.W)
	y = clamp(y, 0, f.H-1)
	return f.Pix[y*f.W+x]
}

// Set writes the pixel at (x, y), wrapping x and clamping y like At.
func (f *Frame) Set(x, y int, v uint8) {
	x = wrap(x, f.W)
	y = clamp(y, 0, f.H-1)
	f.Pix[y*f.W+x] = v
}

// Fill sets every pixel to v.
func (f *Frame) Fill(v uint8) {
	for i := range f.Pix {
		f.Pix[i] = v
	}
}

// Clone returns a deep copy of the frame.
func (f *Frame) Clone() *Frame {
	out := New(f.W, f.H)
	copy(out.Pix, f.Pix)
	return out
}

// Region copies the rectangle r into a new frame of size r.W() x r.H().
// It returns ErrBounds if r exceeds the frame.
func (f *Frame) Region(r geom.Rect) (*Frame, error) {
	if r.X0 < 0 || r.Y0 < 0 || r.X1 > f.W || r.Y1 > f.H || r.Empty() {
		return nil, fmt.Errorf("%w: %v in %dx%d", ErrBounds, r, f.W, f.H)
	}
	out := New(r.W(), r.H())
	for y := r.Y0; y < r.Y1; y++ {
		copy(out.Pix[(y-r.Y0)*out.W:(y-r.Y0+1)*out.W], f.Pix[y*f.W+r.X0:y*f.W+r.X1])
	}
	return out, nil
}

// Blit copies src into the frame with its top-left corner at (x0, y0).
// This is the row-major stitch used by the client (§7). It returns
// ErrBounds if src does not fit.
func (f *Frame) Blit(src *Frame, x0, y0 int) error {
	if x0 < 0 || y0 < 0 || x0+src.W > f.W || y0+src.H > f.H {
		return fmt.Errorf("%w: blit %dx%d at (%d,%d) into %dx%d",
			ErrBounds, src.W, src.H, x0, y0, f.W, f.H)
	}
	for y := 0; y < src.H; y++ {
		copy(f.Pix[(y0+y)*f.W+x0:(y0+y)*f.W+x0+src.W], src.Pix[y*src.W:(y+1)*src.W])
	}
	return nil
}

// MeanLuma returns the average pixel value over rectangle r clipped to the
// frame. An empty clip yields 0.
func (f *Frame) MeanLuma(r geom.Rect) float64 {
	r = r.Intersect(geom.Rect{X1: f.W, Y1: f.H})
	if r.Empty() {
		return 0
	}
	var sum uint64
	for y := r.Y0; y < r.Y1; y++ {
		row := f.Pix[y*f.W+r.X0 : y*f.W+r.X1]
		for _, v := range row {
			sum += uint64(v)
		}
	}
	return float64(sum) / float64(r.Area())
}

// GradientEnergy returns the mean absolute horizontal+vertical gradient
// over rectangle r, a cheap proxy for texture complexity used by the
// content-dependent JND. Neighbours wrap in x and clamp in y like At.
func (f *Frame) GradientEnergy(r geom.Rect) float64 {
	r = r.Intersect(geom.Rect{X1: f.W, Y1: f.H})
	if r.Empty() {
		return 0
	}
	// Gradients are integers, so an integer sum is exact — the value the
	// float64 accumulation it replaces produced.
	var sum int
	for y := r.Y0; y < r.Y1; y++ {
		row := f.Pix[y*f.W : (y+1)*f.W]
		below := row // the bottom row's vertical neighbour is itself
		if y+1 < f.H {
			below = f.Pix[(y+1)*f.W : (y+2)*f.W]
		}
		for x := r.X0; x < r.X1; x++ {
			right := x + 1
			if right == f.W {
				right = 0
			}
			v := int(row[x])
			sum += absInt(v-int(row[right])) + absInt(v-int(below[x]))
		}
	}
	return float64(sum) / float64(r.Area())
}

// ToGray converts the frame to a standard image.Gray (shared backing
// is not used; the pixels are copied), for PNG export and inspection.
func (f *Frame) ToGray() *image.Gray {
	img := image.NewGray(image.Rect(0, 0, f.W, f.H))
	for y := 0; y < f.H; y++ {
		copy(img.Pix[y*img.Stride:y*img.Stride+f.W], f.Pix[y*f.W:(y+1)*f.W])
	}
	return img
}

// MSE returns the mean squared error between two frames of identical
// dimensions, or an error if they differ.
func MSE(a, b *Frame) (float64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, fmt.Errorf("frame: MSE dimension mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H)
	}
	var ss float64
	for i := range a.Pix {
		d := float64(a.Pix[i]) - float64(b.Pix[i])
		ss += d * d
	}
	return ss / float64(len(a.Pix)), nil
}

func wrap(x, w int) int {
	x %= w
	if x < 0 {
		x += w
	}
	return x
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
