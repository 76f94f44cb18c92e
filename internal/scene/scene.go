// Package scene generates synthetic 360° videos with known ground truth.
//
// The paper's dataset is 50 real equirectangular videos (Table 2) from
// which Pano extracts object trajectories (Yolo + KCF tracking), region
// luminance, and depth-of-field. This package substitutes a parametric
// scene model: moving textured objects over a structured background with
// controllable luminance dynamics and a depth field. Because the model is
// analytic, the "feature extraction" the paper performs with a neural
// detector is exact here, while the rendered pixels still exercise the
// full encoder/PSPNR path.
package scene

import (
	"fmt"
	"math"

	"pano/internal/frame"
	"pano/internal/geom"
)

// Genre labels match the paper's Table 2 / Figure 13 categories.
type Genre int

// Genres used across the evaluation.
const (
	Sports Genre = iota
	Performance
	Documentary
	Tourism
	Adventure
	Science
	Gaming
)

var genreNames = [...]string{
	"Sports", "Performance", "Documentary", "Tourism", "Adventure", "Science", "Gaming",
}

// String implements fmt.Stringer.
func (g Genre) String() string {
	if int(g) < 0 || int(g) >= len(genreNames) {
		return fmt.Sprintf("Genre(%d)", int(g))
	}
	return genreNames[g]
}

// AllGenres lists every genre in declaration order.
func AllGenres() []Genre {
	return []Genre{Sports, Performance, Documentary, Tourism, Adventure, Science, Gaming}
}

// Object is a moving foreground element. Its position is parametric in
// time: linear yaw/pitch motion plus an optional vertical oscillation
// (a bobbing skier, a bouncing ball).
type Object struct {
	ID       int
	Start    geom.Angle
	VelYaw   float64 // deg/s
	VelPitch float64 // deg/s
	OscAmp   float64 // deg, vertical oscillation amplitude
	OscHz    float64 // oscillation frequency
	SizeDeg  float64 // angular width/height of the (square) object
	Depth    float64 // dioptre; larger = nearer
	Luma     uint8   // base luminance
	Texture  float64 // texture amplitude added on top of Luma
}

// PositionAt returns the object's center direction at time t seconds.
func (o Object) PositionAt(t float64) geom.Angle {
	return geom.Angle{
		Yaw:   geom.NormYaw(o.Start.Yaw + o.VelYaw*t),
		Pitch: geom.ClampPitch(o.Start.Pitch + o.VelPitch*t + o.OscAmp*math.Sin(2*math.Pi*o.OscHz*t)),
	}
}

// SpeedDegS returns the object's angular speed in deg/s (ignoring the
// oscillation term, which averages to zero).
func (o Object) SpeedDegS() float64 {
	return math.Hypot(o.VelYaw, o.VelPitch)
}

// Background describes the static-plus-flicker backdrop.
type Background struct {
	BaseLuma   float64 // mean luminance
	BandAmp    float64 // spatial luminance banding amplitude (over yaw)
	BandCycles float64 // number of bands around the sphere
	FlickerAmp float64 // temporal luminance swing (urban night scenes)
	FlickerHz  float64 // flicker frequency
	Texture    float64 // background texture amplitude
	NearDepth  float64 // dioptre of the nearest background (bottom of view)
}

// Video is a synthetic 360° video: geometry, frame rate, objects, and
// background. All pixel content is a pure function of (x, y, frame),
// seeded deterministically, so two renders of the same video are
// identical.
type Video struct {
	Name        string
	Genre       Genre
	W, H        int
	FPS         int
	DurationSec int
	Seed        uint64
	Objects     []Object
	Bg          Background
}

// Frames returns the total number of frames.
func (v *Video) Frames() int { return v.FPS * v.DurationSec }

// Geometry returns the equirectangular geometry descriptor.
func (v *Video) Geometry() geom.Frame { return geom.Frame{W: v.W, H: v.H} }

// noise is a deterministic per-pixel hash noise in [-1, 1].
func (v *Video) noise(x, y int) float64 {
	h := uint64(x)*0x9e3779b97f4a7c15 ^ uint64(y)*0xc2b2ae3d27d4eb4f ^ v.Seed
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return float64(h>>11)/(1<<52) - 1
}

// bgLuma returns the analytic background luminance at an angle and
// time. It is separable: a yaw (and time) term plus a pitch term.
func (v *Video) bgLuma(a geom.Angle, t float64) float64 {
	return v.bgYawLuma(a.Yaw, t) + bgPitchLuma(a.Pitch)
}

// bgYawLuma is the part of bgLuma that varies with yaw: base level,
// spatial banding and flicker.
func (v *Video) bgYawLuma(yaw, t float64) float64 {
	l := v.Bg.BaseLuma
	l += v.Bg.BandAmp * math.Sin(yaw*math.Pi/180*v.Bg.BandCycles)
	if v.Bg.FlickerAmp > 0 {
		// Flicker phase varies across the sphere so different view
		// directions see different brightness at the same instant —
		// the urban night scenario of Figure 2(b).
		phase := yaw * math.Pi / 90
		l += v.Bg.FlickerAmp * math.Sin(2*math.Pi*v.Bg.FlickerHz*t+phase)
	}
	return l
}

// bgPitchLuma is the part of bgLuma that varies with pitch: the sky is
// brighter than the ground.
func bgPitchLuma(pitch float64) float64 {
	return 20 * math.Sin(pitch*math.Pi/180)
}

// BgDepthAt returns the background depth (dioptre) at an angle: the sky
// is at optical infinity (0 dioptre) and the ground plane nears the
// viewer toward the nadir.
func (v *Video) BgDepthAt(a geom.Angle) float64 {
	if a.Pitch >= 0 {
		return 0
	}
	return v.Bg.NearDepth * (-a.Pitch / 90)
}

// ObjectAt returns the topmost object covering angle a at time t, or nil.
func (v *Video) ObjectAt(a geom.Angle, t float64) *Object {
	for i := len(v.Objects) - 1; i >= 0; i-- {
		o := &v.Objects[i]
		p := o.PositionAt(t)
		if math.Abs(geom.YawDelta(p.Yaw, a.Yaw)) <= o.SizeDeg/2 &&
			math.Abs(a.Pitch-p.Pitch) <= o.SizeDeg/2 {
			return o
		}
	}
	return nil
}

// LumaAt returns the analytic luminance (before texture noise) at an
// angle and time — the value the video provider stores per tile in the
// manifest.
func (v *Video) LumaAt(a geom.Angle, t float64) float64 {
	if o := v.ObjectAt(a, t); o != nil {
		return float64(o.Luma)
	}
	return clampLuma(v.bgLuma(a, t))
}

// DepthAt returns the depth-of-field (dioptre) at an angle and time.
func (v *Video) DepthAt(a geom.Angle, t float64) float64 {
	if o := v.ObjectAt(a, t); o != nil {
		return o.Depth
	}
	return v.BgDepthAt(a)
}

// RenderFrame renders frame index idx. Frames are rendered on demand and
// never cached here; callers that need repeated access should memoize.
func (v *Video) RenderFrame(idx int) *frame.Frame {
	t := float64(idx) / float64(v.FPS)
	f := frame.New(v.W, v.H)
	g := v.Geometry()

	// Background pass. The analytic luminance is separable, so its
	// sines are evaluated once per column and once per row (a pixel's
	// yaw depends only on x, its pitch only on y) and summed per pixel
	// in bgLuma's order.
	yawLuma := make([]float64, v.W)
	for x := range yawLuma {
		yawLuma[x] = v.bgYawLuma(g.ToAngle(x, 0).Yaw, t)
	}
	for y := 0; y < v.H; y++ {
		pitchLuma := bgPitchLuma(g.ToAngle(0, y).Pitch)
		row := f.Pix[y*v.W : (y+1)*v.W]
		for x := range row {
			l := yawLuma[x] + pitchLuma + v.Bg.Texture*v.noise(x, y)
			row[x] = uint8(clampLuma(l))
		}
	}

	// Object pass (later objects draw on top).
	for oi := range v.Objects {
		o := &v.Objects[oi]
		p := o.PositionAt(t)
		halfW := int(o.SizeDeg / 2 * g.PPDYaw())
		halfH := int(o.SizeDeg / 2 * g.PPDPitch())
		cx, cy := g.ToPixel(p)
		for dy := -halfH; dy <= halfH; dy++ {
			y := cy + dy
			if y < 0 || y >= v.H {
				continue
			}
			for dx := -halfW; dx <= halfW; dx++ {
				x := cx + dx
				// Object texture is anchored to the object so it moves
				// with it (texture coordinates are object-relative).
				l := float64(o.Luma) + o.Texture*v.noise(dx+4096*o.ID, dy)
				f.Set(x, y, uint8(clampLuma(l)))
			}
		}
	}
	return f
}

// MaxObjectSpeed returns the fastest object's angular speed in deg/s,
// or 0 for an empty scene.
func (v *Video) MaxObjectSpeed() float64 {
	var m float64
	for _, o := range v.Objects {
		if s := o.SpeedDegS(); s > m {
			m = s
		}
	}
	return m
}

// Validate performs basic sanity checks on the video description.
func (v *Video) Validate() error {
	switch {
	case v.W <= 0 || v.H <= 0:
		return fmt.Errorf("scene: invalid dimensions %dx%d", v.W, v.H)
	case v.FPS <= 0:
		return fmt.Errorf("scene: invalid fps %d", v.FPS)
	case v.DurationSec <= 0:
		return fmt.Errorf("scene: invalid duration %ds", v.DurationSec)
	}
	for _, o := range v.Objects {
		if o.SizeDeg <= 0 {
			return fmt.Errorf("scene: object %d has non-positive size", o.ID)
		}
		if o.Depth < 0 {
			return fmt.Errorf("scene: object %d has negative depth", o.ID)
		}
	}
	return nil
}

func clampLuma(l float64) float64 {
	if l < 0 {
		return 0
	}
	if l > 255 {
		return 255
	}
	return l
}
