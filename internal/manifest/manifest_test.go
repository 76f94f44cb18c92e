package manifest

import (
	"bytes"
	"math"
	"testing"
	"time"

	"pano/internal/codec"
	"pano/internal/geom"
)

// sampleVideo is a valid two-tile manifest on the wire's grid, as the
// provider emits one.
func sampleVideo() *Video {
	v := &Video{Name: "test", Genre: "Sports", W: 100, H: 50, FPS: 30, ChunkSec: 1}
	mk := func(r geom.Rect) Tile {
		t := Tile{Rect: r, AvgLuma: 120, AvgDoF: 0.5}
		for l := 0; l < codec.NumLevels; l++ {
			t.Bits[l] = 1e5 / math.Pow(1.7, float64(l))
			t.RefPSPNR[l] = 90 - 8*float64(l)
			t.LUT[l] = PowerLUT{ACoeff: 1, BExp: 0.1}
		}
		return t
	}
	v.Chunks = []Chunk{{
		Index: 0,
		Tiles: []Tile{
			mk(geom.Rect{X0: 0, Y0: 0, X1: 50, Y1: 50}),
			mk(geom.Rect{X0: 50, Y0: 0, X1: 100, Y1: 50}),
		},
	}}
	v.Chunks[0].RoundToWire()
	return v
}

func TestValidateAcceptsGood(t *testing.T) {
	if err := sampleVideo().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBad(t *testing.T) {
	v := sampleVideo()
	v.Chunks[0].Tiles[0].Rect.X1 = 40 // gap
	if err := v.Validate(); err == nil {
		t.Error("gap should fail")
	}

	v = sampleVideo()
	v.Chunks[0].Tiles[0].Bits[1] = v.Chunks[0].Tiles[0].Bits[0] * 2 // size grows with worse quality
	if err := v.Validate(); err == nil {
		t.Error("non-monotone sizes should fail")
	}

	v = sampleVideo()
	v.Chunks[0].Tiles[0].Bits[2] = 0
	if err := v.Validate(); err == nil {
		t.Error("zero size should fail")
	}

	v = sampleVideo()
	v.Chunks[0].Tiles[0].RefPSPNR[0] = 150
	if err := v.Validate(); err == nil {
		t.Error("out-of-range PSPNR should fail")
	}

	v = sampleVideo()
	v.W = 0
	if err := v.Validate(); err == nil {
		t.Error("bad header should fail")
	}

	v = sampleVideo()
	v.Chunks[0].Tiles[0].Rect = geom.Rect{X0: -5, Y0: 0, X1: 50, Y1: 50}
	if err := v.Validate(); err == nil {
		t.Error("negative rect should fail")
	}
}

func TestDecodeGarbage(t *testing.T) {
	// JSON included: the wire has one encoding and Decode no fallback.
	for _, in := range []string{"", "{not json", `{"name":"x","w":1,"h":1,"fps":1,"chunkSec":1,"chunks":[]}`} {
		if _, err := Decode(bytes.NewReader([]byte(in))); err == nil {
			t.Errorf("%q should fail to decode", in)
		}
	}
}

func TestChunkBits(t *testing.T) {
	v := sampleVideo()
	want := 2 * v.Chunks[0].Tiles[0].Bits[0]
	if got := v.ChunkBits(0, 0); math.Abs(got-want) > 1e-9 {
		t.Errorf("ChunkBits = %v, want %v", got, want)
	}
	if v.ChunkBits(5, 0) != 0 || v.ChunkBits(-1, 0) != 0 {
		t.Error("out-of-range chunk should be 0")
	}
	if v.DurationSec() != 1 {
		t.Errorf("duration = %v", v.DurationSec())
	}
}

// TestChunkTileAt: on a ragged tiling — rects of unequal size, one
// overlapping another, a hole no rect covers — TileAt answers every
// pixel with the first tile whose rect contains it, and ok=false only
// where none does.
func TestChunkTileAt(t *testing.T) {
	const w, h = 37, 23
	c := Chunk{Tiles: []Tile{
		{Rect: geom.Rect{X0: 0, Y0: 0, X1: 20, Y1: 9}},
		{Rect: geom.Rect{X0: 20, Y0: 0, X1: 37, Y1: 13}},
		{Rect: geom.Rect{X0: 0, Y0: 9, X1: 11, Y1: 23}},
		{Rect: geom.Rect{X0: 15, Y0: 5, X1: 30, Y1: 23}}, // under tiles 0 and 1 in part
		{Rect: geom.Rect{X0: 30, Y0: 13, X1: 37, Y1: 23}},
	}}
	holes := 0
	for y := -1; y <= h; y++ {
		for x := -1; x <= w; x++ {
			want, wantOK := 0, false
			for i := range c.Tiles {
				r := c.Tiles[i].Rect
				if x >= r.X0 && x < r.X1 && y >= r.Y0 && y < r.Y1 {
					want, wantOK = i, true
					break
				}
			}
			if !wantOK && x >= 0 && x < w && y >= 0 && y < h {
				holes++
			}
			if got, ok := c.TileAt(x, y); got != want || ok != wantOK {
				t.Fatalf("TileAt(%d, %d) = %d, %v; want %d, %v", x, y, got, ok, want, wantOK)
			}
		}
	}
	if holes == 0 {
		t.Fatal("the tiling has no uncovered pixel to check")
	}
}

func TestPowerLUTEval(t *testing.T) {
	l := PowerLUT{ACoeff: 1, BExp: 0.2}
	if got := l.PSPNR(60, 1); math.Abs(got-60) > 1e-9 {
		t.Errorf("PSPNR at A=1 = %v, want ref", got)
	}
	if l.PSPNR(60, 5) <= 60 {
		t.Error("PSPNR should rise with A for positive exponent")
	}
	// Sub-1 ratios clamp to 1.
	if l.PSPNR(60, 0.1) != 60 {
		t.Error("A < 1 should clamp")
	}
	// Cap.
	if got := l.PSPNR(99, 100); got > 100 {
		t.Errorf("PSPNR should cap at 100, got %v", got)
	}
}

// TestAnchorRatiosAscendPositive: the provider's PMSE kernel stops at
// the first anchor a pixel's error does not reach, which is only right
// for positive, strictly ascending anchors.
func TestAnchorRatiosAscendPositive(t *testing.T) {
	prev := 0.0
	for i, a := range AnchorRatios {
		if a <= prev {
			t.Fatalf("AnchorRatios[%d] = %v after %v: want positive and strictly ascending", i, a, prev)
		}
		prev = a
	}
}

func TestFitPowerLUT(t *testing.T) {
	// PSPNR(A) = 50 * 1.05 * A^0.3.
	ratios := AnchorRatios
	pspnrs := make([]float64, len(ratios))
	for i, r := range ratios {
		pspnrs[i] = 50 * 1.05 * math.Pow(r, 0.3)
	}
	lut := FitPowerLUT(50, ratios, pspnrs)
	if math.Abs(lut.ACoeff-1.05) > 1e-6 || math.Abs(lut.BExp-0.3) > 1e-6 {
		t.Errorf("fit = %+v, want a=1.05 b=0.3", lut)
	}
	// Degenerate ref falls back to identity.
	flat := FitPowerLUT(0, ratios, pspnrs)
	if flat.ACoeff != 1 || flat.BExp != 0 {
		t.Errorf("degenerate fit = %+v", flat)
	}
}

func TestTableSizesCompressionRatio(t *testing.T) {
	// Build a 5-minute-scale manifest: 300 chunks x 30 tiles.
	v := &Video{Name: "big", W: 480, H: 240, FPS: 30, ChunkSec: 1}
	for k := 0; k < 300; k++ {
		c := Chunk{Index: k}
		for i := 0; i < 30; i++ {
			c.Tiles = append(c.Tiles, Tile{})
		}
		v.Chunks = append(v.Chunks, c)
	}
	full := v.FullTableSize(8)
	reduced := v.ReducedTableSize()
	power := v.PowerTableSize()
	if !(power < reduced && reduced < full) {
		t.Fatalf("sizes not ordered: full=%d reduced=%d power=%d", full, reduced, power)
	}
	// §6.3: ~10 MB down to ~50 KB: expect ≥ 100x compression and a
	// full table in the multi-MB range.
	if ratio := float64(full) / float64(power); ratio < 100 {
		t.Errorf("compression ratio = %v, want ≥ 100x", ratio)
	}
	if full < 5<<20 {
		t.Errorf("full table = %d bytes, expected multi-MB", full)
	}
	if power > 2<<20 {
		t.Errorf("power table = %d bytes, expected ≪ full", power)
	}
}

func TestLiveFieldsRoundTrip(t *testing.T) {
	v := sampleVideo()
	v.Live = true
	v.Seq = 42
	v.FirstChunk = 1
	v.WindowChunks = 8
	v.Chunks = append(v.Chunks, v.Chunks[0])
	v.Chunks[1].Index = 1
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := v.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Live || back.Seq != 42 || back.FirstChunk != 1 || back.WindowChunks != 8 {
		t.Fatalf("live fields lost in round trip: %+v", back)
	}
	// The availability window is [FirstChunk, NumChunks): chunk 1 alone.
	if back.NumChunks() != 2 {
		t.Fatalf("live edge = %d, want 2", back.NumChunks())
	}
}

func TestValidateRejectsBadLiveFields(t *testing.T) {
	v := sampleVideo()
	v.FirstChunk = 5 // past the edge
	if err := v.Validate(); err == nil {
		t.Error("window start past edge should fail")
	}
	v = sampleVideo()
	v.Seq = -1
	if err := v.Validate(); err == nil {
		t.Error("negative seq should fail")
	}
	v = sampleVideo()
	v.WindowChunks = -2
	if err := v.Validate(); err == nil {
		t.Error("negative window should fail")
	}
}

// TestRefreshIntervalRoundsToTheNanosecond: half a chunk enters virtual
// time by nettrace.Nanos's rounding, like every other float second. At
// 2.01 s chunks truncating ChunkSec·1e9/2 read 1.004999999 s; the
// repo's 1 s and 0.5 s chunks and the 100 ms floor read as before.
func TestRefreshIntervalRoundsToTheNanosecond(t *testing.T) {
	for _, tc := range []struct {
		chunkSec float64
		want     time.Duration
	}{
		{2.01, 1005 * time.Millisecond},
		{1, 500 * time.Millisecond},
		{0.5, 250 * time.Millisecond},
		{0.1, 100 * time.Millisecond},
	} {
		if got := (&Video{ChunkSec: tc.chunkSec}).RefreshInterval(); got != tc.want {
			t.Errorf("%v s chunks: RefreshInterval = %v, want %v", tc.chunkSec, got, tc.want)
		}
	}
}
