package provider

import (
	"reflect"
	"testing"

	"pano/internal/codec"
	"pano/internal/manifest"
	"pano/internal/scene"
	"pano/internal/tiling"
	"pano/internal/viewport"
)

func testVideo(genre scene.Genre, seed uint64) *scene.Video {
	return scene.Generate(genre, seed, scene.Options{W: 240, H: 120, FPS: 10, DurationSec: 4})
}

func testHistory(v *scene.Video, n int) []*viewport.Trace {
	var out []*viewport.Trace
	for i := 0; i < n; i++ {
		out = append(out, viewport.Synthesize(v, uint64(i+1), viewport.DefaultSynthesizeOpts()))
	}
	return out
}

func TestPreprocessPano(t *testing.T) {
	v := testVideo(scene.Sports, 5)
	m, err := Preprocess(v, testHistory(v, 3), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.NumChunks() != 4 {
		t.Fatalf("chunks = %d, want 4", m.NumChunks())
	}
	for _, c := range m.Chunks {
		if len(c.Tiles) != tiling.DefaultTiles {
			t.Fatalf("chunk %d tiles = %d, want %d", c.Index, len(c.Tiles), tiling.DefaultTiles)
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Manifest must carry object samples for the client's relative
	// speed estimation.
	if len(m.Chunks[0].Objects) == 0 {
		t.Error("no object trajectory samples")
	}
}

func TestPreprocessModes(t *testing.T) {
	v := testVideo(scene.Documentary, 6)
	hist := testHistory(v, 2)
	for _, mode := range []Mode{ModePano, ModeUniform, ModeClusTile, ModeWhole} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		m, err := Preprocess(v, hist, cfg)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		switch mode {
		case ModeUniform:
			if len(m.Chunks[0].Tiles) != 72 {
				t.Errorf("%v: tiles = %d, want 72", mode, len(m.Chunks[0].Tiles))
			}
		case ModeWhole:
			if len(m.Chunks[0].Tiles) != 1 {
				t.Errorf("%v: tiles = %d, want 1", mode, len(m.Chunks[0].Tiles))
			}
		}
	}
}

// TestEmitsOnTheWireGrid: in every tiling mode, what Preprocess and
// ChunkAt emit is on the wire's binary32 grid — Unmarshal(Marshal(m))
// deep-equals m — and a chunk made alone is the VOD chunk.
func TestEmitsOnTheWireGrid(t *testing.T) {
	v := testVideo(scene.Sports, 8)
	hist := testHistory(v, 2)
	trip := func(m *manifest.Video) *manifest.Video {
		back, err := manifest.Unmarshal(m.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		return back
	}
	for _, mode := range []Mode{ModePano, ModeUniform, ModeClusTile, ModeWhole} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		m, err := Preprocess(v, hist, cfg)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !reflect.DeepEqual(trip(m), m) {
			t.Errorf("%v: Preprocess's manifest changed over the wire", mode)
		}
		live := *m
		live.Chunks = nil
		for k := range m.Chunks {
			ch, err := ChunkAt(v, hist, cfg, k)
			if err != nil {
				t.Fatalf("%v chunk %d: %v", mode, k, err)
			}
			if !reflect.DeepEqual(ch, m.Chunks[k]) {
				t.Errorf("%v chunk %d: ChunkAt differs from Preprocess", mode, k)
			}
			live.Chunks = append(live.Chunks, ch)
		}
		if !reflect.DeepEqual(trip(&live), &live) {
			t.Errorf("%v: ChunkAt's chunks changed over the wire", mode)
		}
	}
}

func TestPreprocessQualitySizeTradeoffs(t *testing.T) {
	v := testVideo(scene.Adventure, 7)
	cfg := DefaultConfig()
	cfg.FrameStride = 5
	m, err := Preprocess(v, testHistory(v, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range m.Chunks {
		for ti, tile := range c.Tiles {
			for l := 1; l < codec.NumLevels; l++ {
				if tile.Bits[l] > tile.Bits[l-1] {
					t.Fatalf("chunk %d tile %d: bits grow with level", c.Index, ti)
				}
				if tile.RefPSPNR[l] > tile.RefPSPNR[l-1]+1e-9 {
					t.Fatalf("chunk %d tile %d: PSPNR grows as quality drops (%v -> %v)",
						c.Index, ti, tile.RefPSPNR[l-1], tile.RefPSPNR[l])
				}
			}
			// The LUT must predict non-decreasing PSPNR in A.
			for l := 0; l < codec.NumLevels; l++ {
				ref := tile.RefPSPNR[l]
				if tile.LUT[l].PSPNR(ref, 5) < tile.LUT[l].PSPNR(ref, 1)-1e-9 {
					t.Fatalf("chunk %d tile %d level %d: LUT not monotone in A", c.Index, ti, l)
				}
			}
		}
	}
}

func TestPreprocessRejectsBadInput(t *testing.T) {
	bad := testVideo(scene.Sports, 1)
	bad.W = 250 // not divisible by 24
	if _, err := Preprocess(bad, nil, DefaultConfig()); err == nil {
		t.Error("indivisible width should error")
	}
	invalid := testVideo(scene.Sports, 1)
	invalid.FPS = 0
	if _, err := Preprocess(invalid, nil, DefaultConfig()); err == nil {
		t.Error("invalid video should error")
	}
}

func TestPreprocessNoHistoryDefaultsToStatic(t *testing.T) {
	v := testVideo(scene.Performance, 8)
	m, err := Preprocess(v, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPanoTilesFewerThanUniformFine(t *testing.T) {
	// The whole point of §5: Pano gets adaptation granularity with ~30
	// tiles instead of 288, so its total encoded size at a given level
	// must be well below the 12×24 uniform encoding.
	v := testVideo(scene.Sports, 9)
	hist := testHistory(v, 2)
	pano, err := Preprocess(v, hist, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Mode = ModeUniform
	fine, err := preprocess(v, hist, cfg, tiling.Grid12x24)
	if err != nil {
		t.Fatal(err)
	}
	if pano.ChunkBits(0, 2) >= fine.ChunkBits(0, 2) {
		t.Errorf("pano chunk size %v should be below 12x24 uniform %v",
			pano.ChunkBits(0, 2), fine.ChunkBits(0, 2))
	}
}

func TestModeString(t *testing.T) {
	if ModePano.String() != "pano" || ModeWhole.String() != "whole" {
		t.Error("mode names wrong")
	}
	if Mode(42).String() != "Mode(42)" {
		t.Error("unknown mode format wrong")
	}
}
