// Package geom provides spherical and equirectangular geometry used
// throughout the Pano pipeline: viewpoint angles, great-circle distances,
// viewport footprints on the equirectangular plane, and pixel/degree
// conversions.
//
// Conventions:
//   - Yaw (longitude) is in degrees in [-180, 180), increasing eastward.
//   - Pitch (latitude) is in degrees in [-90, 90], increasing upward.
//   - An equirectangular frame of size W x H maps yaw linearly to x and
//     pitch linearly to y, with (0, 0) yaw/pitch at the frame center.
package geom

import (
	"fmt"
	"math"
)

// Degrees of the full sphere along each equirectangular axis.
const (
	FullYawDeg   = 360.0
	FullPitchDeg = 180.0
)

// Angle is a direction on the sphere, in degrees.
type Angle struct {
	Yaw   float64 // longitude, degrees, normalized to [-180, 180)
	Pitch float64 // latitude, degrees, clamped to [-90, 90]
}

// NormYaw normalizes a yaw angle in degrees to [-180, 180).
func NormYaw(yaw float64) float64 {
	y := math.Mod(yaw+180, 360)
	if y < 0 {
		y += 360
	}
	return y - 180
}

// ClampPitch clamps a pitch angle in degrees to [-90, 90].
func ClampPitch(pitch float64) float64 {
	if pitch > 90 {
		return 90
	}
	if pitch < -90 {
		return -90
	}
	return pitch
}

// Norm returns a normalized copy of a: yaw wrapped, pitch clamped.
func (a Angle) Norm() Angle {
	return Angle{Yaw: NormYaw(a.Yaw), Pitch: ClampPitch(a.Pitch)}
}

// String implements fmt.Stringer.
func (a Angle) String() string {
	return fmt.Sprintf("(yaw=%.2f°, pitch=%.2f°)", a.Yaw, a.Pitch)
}

// YawDelta returns the signed shortest yaw difference b-a in degrees,
// in [-180, 180).
func YawDelta(a, b float64) float64 {
	return NormYaw(b - a)
}

// GreatCircleDeg returns the central angle between two directions in
// degrees, computed with the haversine formula for numerical stability
// at small separations.
func GreatCircleDeg(a, b Angle) float64 {
	lat1 := a.Pitch * math.Pi / 180
	lat2 := b.Pitch * math.Pi / 180
	dLat := lat2 - lat1
	dLon := (b.Yaw - a.Yaw) * math.Pi / 180
	s1 := math.Sin(dLat / 2)
	s2 := math.Sin(dLon / 2)
	h := s1*s1 + math.Cos(lat1)*math.Cos(lat2)*s2*s2
	if h > 1 {
		h = 1
	}
	return 2 * math.Asin(math.Sqrt(h)) * 180 / math.Pi
}

// Vec returns the unit direction vector of the angle (x toward yaw 0,
// z toward the north pole).
func (a Angle) Vec() [3]float64 {
	yaw := a.Yaw * math.Pi / 180
	pitch := a.Pitch * math.Pi / 180
	return [3]float64{
		math.Cos(pitch) * math.Cos(yaw),
		math.Cos(pitch) * math.Sin(yaw),
		math.Sin(pitch),
	}
}

// FromVec converts a direction vector (not necessarily unit) back to an
// angle. The zero vector maps to the origin direction.
func FromVec(v [3]float64) Angle {
	n := math.Sqrt(v[0]*v[0] + v[1]*v[1] + v[2]*v[2])
	if n == 0 {
		return Angle{}
	}
	return Angle{
		Yaw:   NormYaw(math.Atan2(v[1], v[0]) * 180 / math.Pi),
		Pitch: ClampPitch(math.Asin(v[2]/n) * 180 / math.Pi),
	}
}

// Centroid returns the spherical centroid (normalized mean direction)
// of the given angles, or the origin direction for an empty slice.
func Centroid(angles []Angle) Angle {
	var sum [3]float64
	for _, a := range angles {
		v := a.Vec()
		sum[0] += v[0]
		sum[1] += v[1]
		sum[2] += v[2]
	}
	return FromVec(sum)
}

// Frame describes an equirectangular pixel grid.
type Frame struct {
	W, H int
}

// PPDYaw returns horizontal pixels per degree at the equator.
func (f Frame) PPDYaw() float64 { return float64(f.W) / FullYawDeg }

// PPDPitch returns vertical pixels per degree.
func (f Frame) PPDPitch() float64 { return float64(f.H) / FullPitchDeg }

// ToPixel maps an angle to pixel coordinates within the frame.
// The returned coordinates are clamped to [0, W-1] x [0, H-1].
func (f Frame) ToPixel(a Angle) (x, y int) {
	a = a.Norm()
	fx := (a.Yaw + 180) / FullYawDeg * float64(f.W)
	fy := (90 - a.Pitch) / FullPitchDeg * float64(f.H)
	x = int(fx)
	y = int(fy)
	if x < 0 {
		x = 0
	}
	if x >= f.W {
		x = f.W - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= f.H {
		y = f.H - 1
	}
	return x, y
}

// ToAngle maps pixel coordinates to the angle at the pixel center.
func (f Frame) ToAngle(x, y int) Angle {
	yaw := (float64(x)+0.5)/float64(f.W)*FullYawDeg - 180
	pitch := 90 - (float64(y)+0.5)/float64(f.H)*FullPitchDeg
	return Angle{Yaw: NormYaw(yaw), Pitch: ClampPitch(pitch)}
}

// Rect is a half-open pixel rectangle [X0,X1) x [Y0,Y1) on an
// equirectangular frame. Rectangles never wrap: a wrapping region is
// represented as two Rects (see Viewport).
type Rect struct {
	X0, Y0, X1, Y1 int
}

// W returns the rectangle width in pixels.
func (r Rect) W() int { return r.X1 - r.X0 }

// H returns the rectangle height in pixels.
func (r Rect) H() int { return r.Y1 - r.Y0 }

// Area returns the rectangle area in pixels.
func (r Rect) Area() int { return r.W() * r.H() }

// Empty reports whether the rectangle has no pixels.
func (r Rect) Empty() bool { return r.X1 <= r.X0 || r.Y1 <= r.Y0 }

// Contains reports whether pixel (x, y) is inside the rectangle.
func (r Rect) Contains(x, y int) bool {
	return x >= r.X0 && x < r.X1 && y >= r.Y0 && y < r.Y1
}

// Intersect returns the intersection of two rectangles (possibly empty).
func (r Rect) Intersect(o Rect) Rect {
	out := Rect{
		X0: max(r.X0, o.X0), Y0: max(r.Y0, o.Y0),
		X1: min(r.X1, o.X1), Y1: min(r.Y1, o.Y1),
	}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// OverlapArea returns the overlap area in pixels between two rectangles.
func (r Rect) OverlapArea(o Rect) int { return r.Intersect(o).Area() }

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)", r.X0, r.X1, r.Y0, r.Y1)
}

// Viewport describes a field of view centered at a viewpoint.
// WidthDeg/HeightDeg are the angular extents (e.g. 110 x 90 for a
// head-mounted display).
type Viewport struct {
	Center    Angle
	WidthDeg  float64
	HeightDeg float64
}

// DefaultViewport returns the ~110°x90° HMD viewport used in the paper.
func DefaultViewport(center Angle) Viewport {
	return Viewport{Center: center, WidthDeg: 110, HeightDeg: 90}
}

// Footprint returns the viewport's pixel coverage on frame f as one or two
// non-wrapping rectangles (two when the viewport crosses the ±180° seam).
func (v Viewport) Footprint(f Frame) []Rect {
	c := v.Center.Norm()
	halfW := v.WidthDeg / 2
	halfH := v.HeightDeg / 2

	top := ClampPitch(c.Pitch + halfH)
	bot := ClampPitch(c.Pitch - halfH)
	y0 := int((90 - top) / FullPitchDeg * float64(f.H))
	y1 := int(math.Ceil((90 - bot) / FullPitchDeg * float64(f.H)))
	y0 = clampInt(y0, 0, f.H)
	y1 = clampInt(y1, 0, f.H)
	if y1 <= y0 {
		return nil
	}

	left := c.Yaw - halfW
	right := c.Yaw + halfW
	if right-left >= FullYawDeg {
		return []Rect{{X0: 0, Y0: y0, X1: f.W, Y1: y1}}
	}
	x0f := (left + 180) / FullYawDeg * float64(f.W)
	x1f := (right + 180) / FullYawDeg * float64(f.W)
	x0 := int(math.Floor(x0f))
	x1 := int(math.Ceil(x1f))

	wrapMod := func(x int) int {
		m := x % f.W
		if m < 0 {
			m += f.W
		}
		return m
	}
	if x0 >= 0 && x1 <= f.W {
		return []Rect{{X0: x0, Y0: y0, X1: x1, Y1: y1}}
	}
	// Wrapping: split into [wrap(x0), W) and [0, wrap(x1)).
	a := Rect{X0: wrapMod(x0), Y0: y0, X1: f.W, Y1: y1}
	b := Rect{X0: 0, Y0: y0, X1: wrapMod(x1), Y1: y1}
	out := make([]Rect, 0, 2)
	if !a.Empty() {
		out = append(out, a)
	}
	if !b.Empty() {
		out = append(out, b)
	}
	return out
}

// Contains reports whether angle a falls within the viewport.
func (v Viewport) Contains(a Angle) bool {
	c := v.Center.Norm()
	a = a.Norm()
	dy := math.Abs(a.Pitch - c.Pitch)
	dx := math.Abs(YawDelta(c.Yaw, a.Yaw))
	return dx <= v.WidthDeg/2 && dy <= v.HeightDeg/2
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
