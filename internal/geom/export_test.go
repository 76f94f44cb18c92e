package geom

import "math"

// Contains reports whether angle a falls within the viewport.
func (v Viewport) Contains(a Angle) bool {
	c := v.Center.Norm()
	a = a.Norm()
	dy := math.Abs(a.Pitch - c.Pitch)
	dx := math.Abs(YawDelta(c.Yaw, a.Yaw))
	return dx <= v.WidthDeg/2 && dy <= v.HeightDeg/2
}
