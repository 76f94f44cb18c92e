package frame

import (
	"errors"
	"testing"

	"pano/internal/geom"
)

func TestNewAndFill(t *testing.T) {
	f := New(16, 8)
	if len(f.Pix) != 128 {
		t.Fatalf("pix len = %d", len(f.Pix))
	}
	f.Fill(42)
	for _, v := range f.Pix {
		if v != 42 {
			t.Fatal("Fill did not set all pixels")
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0, 5) should panic")
		}
	}()
	New(0, 5)
}

func TestAtSetWrapAndClamp(t *testing.T) {
	f := New(10, 5)
	f.Set(0, 0, 7)
	if f.At(10, 0) != 7 { // x wraps
		t.Error("x should wrap at width")
	}
	if f.At(-10, 0) != 7 {
		t.Error("negative x should wrap")
	}
	f.Set(3, 4, 9)
	if f.At(3, 100) != 9 { // y clamps to bottom row
		t.Error("y should clamp")
	}
}

func TestRegionAndBlitRoundTrip(t *testing.T) {
	f := New(20, 10)
	for i := range f.Pix {
		f.Pix[i] = uint8(i % 251)
	}
	r := geom.Rect{X0: 3, Y0: 2, X1: 13, Y1: 8}
	sub, err := f.Region(r)
	if err != nil {
		t.Fatal(err)
	}
	if sub.W != 10 || sub.H != 6 {
		t.Fatalf("region dims %dx%d", sub.W, sub.H)
	}
	dst := New(20, 10)
	if err := dst.Blit(sub, r.X0, r.Y0); err != nil {
		t.Fatal(err)
	}
	for y := r.Y0; y < r.Y1; y++ {
		for x := r.X0; x < r.X1; x++ {
			if dst.At(x, y) != f.At(x, y) {
				t.Fatalf("blit mismatch at (%d,%d)", x, y)
			}
		}
	}
}

func TestRegionBounds(t *testing.T) {
	f := New(10, 10)
	if _, err := f.Region(geom.Rect{X0: 5, Y0: 5, X1: 15, Y1: 8}); !errors.Is(err, ErrBounds) {
		t.Errorf("out-of-bounds region err = %v, want ErrBounds", err)
	}
	if _, err := f.Region(geom.Rect{X0: 5, Y0: 5, X1: 5, Y1: 8}); err == nil {
		t.Error("empty region should error")
	}
}

func TestBlitBounds(t *testing.T) {
	f := New(10, 10)
	src := New(5, 5)
	if err := f.Blit(src, 8, 0); !errors.Is(err, ErrBounds) {
		t.Errorf("overflow blit err = %v, want ErrBounds", err)
	}
}

func TestMeanLuma(t *testing.T) {
	f := New(10, 10)
	f.Fill(100)
	all := geom.Rect{X1: 10, Y1: 10}
	if got := f.MeanLuma(all); got != 100 {
		t.Errorf("mean = %v, want 100", got)
	}
	// Half 0, half 200: mean 100.
	for y := 0; y < 10; y++ {
		for x := 0; x < 10; x++ {
			if x < 5 {
				f.Set(x, y, 0)
			} else {
				f.Set(x, y, 200)
			}
		}
	}
	if got := f.MeanLuma(all); got != 100 {
		t.Errorf("mean = %v, want 100", got)
	}
	// Clipped region outside the frame yields 0.
	if got := f.MeanLuma(geom.Rect{X0: 100, Y0: 100, X1: 110, Y1: 110}); got != 0 {
		t.Errorf("out-of-frame mean = %v, want 0", got)
	}
}

func TestGradientEnergy(t *testing.T) {
	flat := New(10, 10)
	flat.Fill(128)
	if got := flat.GradientEnergy(geom.Rect{X1: 10, Y1: 10}); got != 0 {
		t.Errorf("flat gradient = %v, want 0", got)
	}
	stripes := New(10, 10)
	for y := 0; y < 10; y++ {
		for x := 0; x < 10; x++ {
			if x%2 == 0 {
				stripes.Set(x, y, 0)
			} else {
				stripes.Set(x, y, 200)
			}
		}
	}
	if got := stripes.GradientEnergy(geom.Rect{X1: 10, Y1: 10}); got < 100 {
		t.Errorf("stripe gradient = %v, want large", got)
	}
}

func TestMSE(t *testing.T) {
	a := New(8, 8)
	b := New(8, 8)
	if got, err := MSE(a, b); err != nil || got != 0 {
		t.Errorf("identical MSE = %v, %v", got, err)
	}
	b.Fill(10)
	if got, _ := MSE(a, b); got != 100 {
		t.Errorf("MSE = %v, want 100", got)
	}
	c := New(4, 4)
	if _, err := MSE(a, c); err == nil {
		t.Error("dimension mismatch should error")
	}
}

func TestClone(t *testing.T) {
	a := New(4, 4)
	a.Fill(9)
	b := a.Clone()
	b.Set(0, 0, 1)
	if a.At(0, 0) != 9 {
		t.Error("Clone should deep-copy pixels")
	}
}
