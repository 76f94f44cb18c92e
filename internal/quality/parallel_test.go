package quality

import (
	"testing"

	"pano/internal/frame"
	"pano/internal/geom"
	"pano/internal/jnd"
	"pano/internal/mathx"
	"pano/internal/obs"
)

var workerCounts = []int{1, 2, 8}

func randFrame(rng *mathx.RNG, w, h int) *frame.Frame {
	f := frame.New(w, h)
	for i := range f.Pix {
		f.Pix[i] = uint8(rng.Intn(256))
	}
	return f
}

// perturb returns a copy of f with bounded random noise, the stand-in
// for encoder distortion in the randomized properties.
func perturb(rng *mathx.RNG, f *frame.Frame, amp int) *frame.Frame {
	out := f.Clone()
	for i := range out.Pix {
		d := rng.Intn(2*amp+1) - amp
		v := int(out.Pix[i]) + d
		if v < 0 {
			v = 0
		}
		if v > 255 {
			v = 255
		}
		out.Pix[i] = uint8(v)
	}
	return out
}

func TestPMSESerialEqualsParallel(t *testing.T) {
	rng := mathx.NewRNG(0xFACADE)
	for trial := 0; trial < 25; trial++ {
		// Heights straddle the band size, including 1-pixel frames.
		w := 1 + rng.Intn(130)
		h := 1 + rng.Intn(100)
		orig := randFrame(rng, w, h)
		enc := perturb(rng, orig, 20)
		field := make([]float64, w*h)
		for i := range field {
			field[i] = rng.Range(0, 12)
		}
		ref, err := PMSEWorkers(orig, enc, field, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range workerCounts[1:] {
			got, err := PMSEWorkers(orig, enc, field, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got != ref {
				t.Fatalf("trial %d %dx%d workers %d: PMSE %v, want %v (bit-exact)",
					trial, w, h, workers, got, ref)
			}
		}
		def, err := PMSE(orig, enc, field)
		if err != nil {
			t.Fatal(err)
		}
		if def != ref {
			t.Fatalf("trial %d: PMSE default diverges from PMSEWorkers(1)", trial)
		}
	}
}

func TestTilePSPNRSerialParallelAndCachedAgree(t *testing.T) {
	rng := mathx.NewRNG(0xBEEF)
	prof := jnd.Default()
	for trial := 0; trial < 10; trial++ {
		w := 16 + rng.Intn(120)
		h := 16 + rng.Intn(80)
		orig := randFrame(rng, w, h)
		x0, y0 := rng.Intn(w-8), rng.Intn(h-8)
		r := geom.Rect{X0: x0, Y0: y0, X1: x0 + 8 + rng.Intn(w-x0-8), Y1: y0 + 8 + rng.Intn(h-y0-8)}
		sub, err := orig.Region(r)
		if err != nil {
			t.Fatal(err)
		}
		enc := perturb(rng, sub, 25)
		f := jnd.Factors{SpeedDegS: rng.Range(0, 20), LumaChange: rng.Range(0, 100)}

		pmseRef, err := TilePMSE(prof, nil, "", orig, enc, r, f)
		if err != nil {
			t.Fatal(err)
		}
		if ref, err := TilePSPNR(prof, orig, enc, r, f); err != nil || ref != PSPNRFromPMSE(pmseRef) {
			t.Fatalf("trial %d: TilePSPNR %v (%v), want PSPNRFromPMSE(TilePMSE) %v", trial, ref, err, PSPNRFromPMSE(pmseRef))
		}
		reg := obs.NewRegistry()
		cache := jnd.NewFieldCache(8, reg)
		for pass := 0; pass < 2; pass++ { // second pass is a cache hit
			got, err := TilePMSE(prof, cache, "k", orig, enc, r, f)
			if err != nil {
				t.Fatal(err)
			}
			if got != pmseRef {
				t.Fatalf("trial %d pass %d: cached PMSE %v, want %v", trial, pass, got, pmseRef)
			}
		}
		if hits, misses := reg.CounterValue("pano_jnd_field_cache_hits_total"), reg.CounterValue("pano_jnd_field_cache_misses_total"); hits != 1 || misses != 1 {
			t.Fatalf("trial %d: cache stats (%v, %v), want (1, 1)", trial, hits, misses)
		}
	}
}

func TestTilePSPNRDegenerateRectsMatchSerial(t *testing.T) {
	rng := mathx.NewRNG(31)
	orig := randFrame(rng, 24, 24)
	onePix := geom.Rect{X0: 5, Y0: 5, X1: 6, Y1: 6}
	sub, err := orig.Region(onePix)
	if err != nil {
		t.Fatal(err)
	}
	enc := perturb(rng, sub, 30)
	want, err := TilePMSE(nil, nil, "", orig, enc, onePix, jnd.Factors{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := TilePMSE(nil, jnd.NewFieldCache(2, nil), "k", orig, enc, onePix, jnd.Factors{})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("1-pixel tile: cached %v, want %v", got, want)
	}

	// Empty and out-of-bounds rects error identically, never panic.
	for _, r := range []geom.Rect{{}, {X0: 3, Y0: 3, X1: 3, Y1: 9}, {X0: -2, Y0: 0, X1: 4, Y1: 4}} {
		_, err1 := TilePSPNR(nil, orig, enc, r, jnd.Factors{})
		_, err2 := TilePMSE(nil, jnd.NewFieldCache(2, nil), "k", orig, enc, r, jnd.Factors{})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("rect %v: serial err %v vs cached err %v", r, err1, err2)
		}
		if err1 == nil {
			t.Fatalf("rect %v: expected error", r)
		}
	}
}
