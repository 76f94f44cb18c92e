package scene

import (
	"math"
	"testing"

	"pano/internal/frame"
	"pano/internal/geom"
)

func testOpts() Options {
	return Options{W: 120, H: 60, FPS: 10, DurationSec: 4}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Sports, 99, testOpts())
	b := Generate(Sports, 99, testOpts())
	fa := a.RenderFrame(7)
	fb := b.RenderFrame(7)
	for i := range fa.Pix {
		if fa.Pix[i] != fb.Pix[i] {
			t.Fatal("same seed should render identical frames")
		}
	}
	c := Generate(Sports, 100, testOpts())
	fc := c.RenderFrame(7)
	same := true
	for i := range fa.Pix {
		if fa.Pix[i] != fc.Pix[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should render different frames")
	}
}

func TestGenerateAllGenresValid(t *testing.T) {
	for _, g := range AllGenres() {
		v := Generate(g, 1, testOpts())
		if err := v.Validate(); err != nil {
			t.Errorf("%v: %v", g, err)
		}
		if len(v.Objects) == 0 {
			t.Errorf("%v: no objects", g)
		}
		if v.Frames() != 40 {
			t.Errorf("%v: frames = %d, want 40", g, v.Frames())
		}
	}
}

func TestGenreSpeedOrdering(t *testing.T) {
	// Sports/Adventure must be markedly faster than Performance/Science,
	// since the genre split drives Figure 15's per-genre gains.
	fast := 0.0
	slow := 0.0
	for seed := uint64(0); seed < 10; seed++ {
		fast += Generate(Sports, seed, testOpts()).MaxObjectSpeed()
		slow += Generate(Performance, seed, testOpts()).MaxObjectSpeed()
	}
	if fast <= 1.5*slow {
		t.Errorf("sports speed %v should well exceed performance %v", fast/10, slow/10)
	}
}

func TestObjectMotion(t *testing.T) {
	o := Object{Start: geom.Angle{Yaw: 0, Pitch: 0}, VelYaw: 10, VelPitch: 0, SizeDeg: 5}
	p := o.PositionAt(2)
	if math.Abs(p.Yaw-20) > 1e-9 {
		t.Errorf("yaw at t=2: %v, want 20", p.Yaw)
	}
	// Wraps the seam.
	o.Start.Yaw = 170
	p = o.PositionAt(2)
	if math.Abs(p.Yaw-(-170)) > 1e-9 {
		t.Errorf("wrapped yaw: %v, want -170", p.Yaw)
	}
	if got := o.SpeedDegS(); math.Abs(got-10) > 1e-9 {
		t.Errorf("speed = %v, want 10", got)
	}
}

func TestObjectRenderedAtPosition(t *testing.T) {
	v := &Video{
		Name: "t", W: 360, H: 180, FPS: 10, DurationSec: 2, Seed: 5,
		Objects: []Object{{
			ID: 1, Start: geom.Angle{Yaw: 0, Pitch: 0},
			VelYaw: 0, SizeDeg: 20, Luma: 250, Depth: 1,
		}},
		Bg: Background{BaseLuma: 30, NearDepth: 1},
	}
	f := v.RenderFrame(0)
	g := v.Geometry()
	cx, cy := g.ToPixel(geom.Angle{Yaw: 0, Pitch: 0})
	if f.At(cx, cy) < 200 {
		t.Errorf("object center luma = %d, want bright", f.At(cx, cy))
	}
	bx, by := g.ToPixel(geom.Angle{Yaw: 180, Pitch: 0})
	if f.At(bx, by) > 100 {
		t.Errorf("background luma = %d, want dark", f.At(bx, by))
	}
}

func TestLumaAndDepthGroundTruth(t *testing.T) {
	v := &Video{
		Name: "t", W: 360, H: 180, FPS: 10, DurationSec: 2, Seed: 5,
		Objects: []Object{{
			ID: 1, Start: geom.Angle{Yaw: 90, Pitch: 0},
			SizeDeg: 10, Luma: 200, Depth: 2.5,
		}},
		Bg: Background{BaseLuma: 50, NearDepth: 2},
	}
	on := geom.Angle{Yaw: 90, Pitch: 0}
	off := geom.Angle{Yaw: -90, Pitch: 0}
	if got := v.LumaAt(on, 0); got != 200 {
		t.Errorf("LumaAt(object) = %v, want 200", got)
	}
	if got := v.DepthAt(on, 0); got != 2.5 {
		t.Errorf("DepthAt(object) = %v, want 2.5", got)
	}
	if got := v.DepthAt(geom.Angle{Yaw: 0, Pitch: 45}, 0); got != 0 {
		t.Errorf("sky depth = %v, want 0 dioptre", got)
	}
	if got := v.DepthAt(geom.Angle{Yaw: 0, Pitch: -90}, 0); math.Abs(got-2) > 1e-9 {
		t.Errorf("nadir depth = %v, want 2", got)
	}
	if got := v.LumaAt(off, 0); got == 200 {
		t.Error("off-object luma should come from background")
	}
}

func TestObjectAtTopmost(t *testing.T) {
	v := &Video{
		Name: "t", W: 360, H: 180, FPS: 10, DurationSec: 1, Seed: 1,
		Objects: []Object{
			{ID: 1, Start: geom.Angle{}, SizeDeg: 20, Luma: 100, Depth: 1},
			{ID: 2, Start: geom.Angle{}, SizeDeg: 10, Luma: 200, Depth: 2},
		},
		Bg: Background{BaseLuma: 50},
	}
	o := v.ObjectAt(geom.Angle{}, 0)
	if o == nil || o.ID != 2 {
		t.Errorf("topmost object = %v, want ID 2", o)
	}
}

func TestFlickerChangesLuminanceOverTime(t *testing.T) {
	v := Generate(Performance, 3, testOpts())
	if v.Bg.FlickerAmp == 0 {
		t.Skip("profile without flicker")
	}
	a := geom.Angle{Yaw: 45, Pitch: 0}
	l0 := v.bgLuma(a, 0)
	var maxDiff float64
	for ti := 1; ti <= 40; ti++ {
		d := math.Abs(v.bgLuma(a, float64(ti)*0.1) - l0)
		if d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff < 20 {
		t.Errorf("flicker swing = %v, want ≥ 20 grey levels", maxDiff)
	}
}

func TestValidateRejectsBadVideos(t *testing.T) {
	bad := []*Video{
		{W: 0, H: 10, FPS: 30, DurationSec: 1},
		{W: 10, H: 10, FPS: 0, DurationSec: 1},
		{W: 10, H: 10, FPS: 30, DurationSec: 0},
		{W: 10, H: 10, FPS: 30, DurationSec: 1, Objects: []Object{{SizeDeg: 0}}},
		{W: 10, H: 10, FPS: 30, DurationSec: 1, Objects: []Object{{SizeDeg: 5, Depth: -1}}},
	}
	for i, v := range bad {
		if err := v.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestGenreString(t *testing.T) {
	if Sports.String() != "Sports" || Gaming.String() != "Gaming" {
		t.Error("genre names wrong")
	}
	if Genre(99).String() != "Genre(99)" {
		t.Error("unknown genre format wrong")
	}
}

// referenceRenderFrame is RenderFrame as it was before the separable
// background pass: the luminance formula evaluated per pixel, up to
// three sines each.
func referenceRenderFrame(v *Video, idx int) *frame.Frame {
	t := float64(idx) / float64(v.FPS)
	f := frame.New(v.W, v.H)
	g := v.Geometry()
	for y := 0; y < v.H; y++ {
		for x := 0; x < v.W; x++ {
			a := g.ToAngle(x, y)
			l := v.Bg.BaseLuma
			l += v.Bg.BandAmp * math.Sin(a.Yaw*math.Pi/180*v.Bg.BandCycles)
			if v.Bg.FlickerAmp > 0 {
				phase := a.Yaw * math.Pi / 90
				l += v.Bg.FlickerAmp * math.Sin(2*math.Pi*v.Bg.FlickerHz*t+phase)
			}
			l += 20 * math.Sin(a.Pitch*math.Pi/180)
			f.Pix[y*v.W+x] = uint8(clampLuma(l + v.Bg.Texture*v.noise(x, y)))
		}
	}
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
				l := float64(o.Luma) + o.Texture*v.noise(dx+4096*o.ID, dy)
				f.Set(cx+dx, y, uint8(clampLuma(l)))
			}
		}
	}
	return f
}

// TestRenderFrameMatchesPerPixelReference: the separable background
// must produce the per-pixel formula's bits on every genre, with the
// flicker term on and off.
func TestRenderFrameMatchesPerPixelReference(t *testing.T) {
	for _, genre := range AllGenres() {
		for _, flicker := range []bool{false, true} {
			v := Generate(genre, 31, testOpts())
			if flicker {
				v.Bg.FlickerAmp, v.Bg.FlickerHz = 60, 0.7
			} else {
				v.Bg.FlickerAmp = 0
			}
			for _, idx := range []int{0, 7, v.Frames() - 1} {
				got, want := v.RenderFrame(idx).Pix, referenceRenderFrame(v, idx).Pix
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%v flicker=%v frame %d: pixel (%d,%d) = %d, reference %d",
							genre, flicker, idx, i%v.W, i/v.W, got[i], want[i])
					}
				}
			}
		}
	}
}

func BenchmarkRenderFrame(b *testing.B) {
	v := Generate(Sports, 2019, Options{W: 480, H: 240, FPS: 30, DurationSec: 8})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.RenderFrame(i * 10 % v.Frames())
	}
}
