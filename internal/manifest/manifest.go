// Package manifest defines the DASH-style manifest Pano ships to the
// client, including the PSPNR lookup table of §6.2–6.3.
//
// Pano's quality adaptation needs PSPNR, which depends on both
// server-side information (pixels) and client-side information
// (viewpoint movement). To stay DASH-compatible, the provider
// pre-computes per-tile quality estimates offline and embeds them in the
// manifest; the client combines them with its live viewpoint prediction.
//
// Three lookup-table schemas mirror Figure 12:
//
//	(a) Full:    PSPNR for every (speed, DoF, luminance) combination.
//	(b) Reduced: PSPNR indexed by the scalar action-dependent ratio A.
//	(c) Power:   per-tile power-regression coefficients, PSPNR(A) ≈
//	             Ref · a · A^b — two floats per tile and level.
//
// The manifest always carries schema (c); the other schemas exist so the
// compression experiment (§6.3) can be reproduced byte-for-byte.
//
// On the wire (/manifest.json, the store's manifest blob, the files of
// pano-tracegen and pano-server -manifest) a Video is one lossless,
// canonical binary encoding — wire.go. The json tags below serve only a
// test or debugger that json.Marshals one; /manifest.mpd is the
// human-readable view.
package manifest

import (
	"fmt"
	"math"

	"pano/internal/codec"
	"pano/internal/geom"
	"pano/internal/mathx"
)

// ObjectSample is one entry of a tile's object-trajectory track: the
// paper stores one sample per 10 frames (§7).
type ObjectSample struct {
	T        float64 `json:"t"`     // seconds from chunk start
	Yaw      float64 `json:"yaw"`   // object center
	Pitch    float64 `json:"pitch"` //
	SpeedDeg float64 `json:"speed"` // object angular speed, deg/s
	Depth    float64 `json:"depth"` // dioptre
}

// Tile describes one variable-size tile of one chunk (§7's per-tile
// manifest fields).
type Tile struct {
	// Rect is the tile's pixel rectangle; the top-left coordinate is
	// required because Pano's tiles are not aligned across chunks.
	Rect geom.Rect `json:"rect"`
	// AvgLuma is the tile's average luminance (grey level).
	AvgLuma float64 `json:"avgLuma"`
	// AvgDoF is the tile's average depth-of-field (dioptre).
	AvgDoF float64 `json:"avgDof"`
	// ObjSpeedDeg is the mean angular speed of objects in the tile
	// (0 for pure background): the client subtracts it from its own
	// viewpoint speed to get the relative speed factor.
	ObjSpeedDeg float64 `json:"objSpeed"`
	// Bits is the encoded size of the tile at each quality level.
	Bits [codec.NumLevels]float64 `json:"bits"`
	// PSNR is the plain (JND-agnostic) PSNR at each level, used by the
	// viewport-driven baselines whose quality model ignores perception.
	PSNR [codec.NumLevels]float64 `json:"psnr"`
	// RefPSPNR is the PSPNR at each level under static viewing (A=1).
	RefPSPNR [codec.NumLevels]float64 `json:"refPspnr"`
	// LUT holds the compressed PSPNR-vs-A model per level.
	LUT [codec.NumLevels]PowerLUT `json:"lut"`
}

// PowerLUT is schema (c): PSPNR(A) ≈ Ref * A_coeff * A^B_exp, fitted
// over the anchor ratios of the reduced table.
type PowerLUT struct {
	ACoeff float64 `json:"a"`
	BExp   float64 `json:"b"`
}

// PSPNR evaluates the compressed model for action ratio A against a
// reference PSPNR, clamping to the metric's cap.
func (p PowerLUT) PSPNR(ref, a float64) float64 {
	if a < 1 {
		a = 1
	}
	v := ref * p.ACoeff * math.Pow(a, p.BExp)
	if v > 100 {
		v = 100
	}
	return v
}

// Chunk is one second (ChunkSec) of video split into tiles.
type Chunk struct {
	Index   int            `json:"index"`
	Tiles   []Tile         `json:"tiles"`
	Objects []ObjectSample `json:"objects,omitempty"`
}

// Video is the complete manifest.
type Video struct {
	Name     string  `json:"name"`
	Genre    string  `json:"genre"`
	W        int     `json:"w"`
	H        int     `json:"h"`
	FPS      int     `json:"fps"`
	ChunkSec float64 `json:"chunkSec"`
	Chunks   []Chunk `json:"chunks"`

	// Live marks a manifest still being produced: Chunks holds every
	// chunk published so far (the live edge is NumChunks()) and clients
	// must refresh to see more. The final publish of a feed clears Live,
	// which is the end-of-stream signal.
	Live bool `json:"live,omitempty"`
	// Seq increments on every live publish; together with the content
	// ETag it orders manifest refreshes (a client never adopts a refresh
	// whose Seq went backwards, e.g. from a lagging origin).
	Seq int64 `json:"seq,omitempty"`
	// FirstChunk is the availability-window start: chunks below it have
	// been retired from storage and requests for their tiles answer
	// 410 Gone. Chunk metadata is retained so indices stay absolute.
	FirstChunk int `json:"firstChunk,omitempty"`
	// WindowChunks is the configured availability window in chunks
	// (0 = unbounded; FirstChunk then never advances).
	WindowChunks int `json:"windowChunks,omitempty"`
}

// NumChunks returns the number of chunks.
func (v *Video) NumChunks() int { return len(v.Chunks) }

// LiveEdge returns the index of the first not-yet-published chunk. For
// a VOD manifest this is simply the chunk count.
func (v *Video) LiveEdge() int { return len(v.Chunks) }

// ChunkAvailable reports whether chunk k is published and still inside
// the availability window (below-window chunks answer 410 Gone, at-or-
// past-edge chunks 404 until published).
func (v *Video) ChunkAvailable(k int) bool {
	return k >= v.FirstChunk && k < len(v.Chunks)
}

// DurationSec returns the video duration in seconds.
func (v *Video) DurationSec() float64 { return float64(len(v.Chunks)) * v.ChunkSec }

// ChunkBits returns the total size in bits of chunk k with every tile at
// level l.
func (v *Video) ChunkBits(k int, l codec.Level) float64 {
	if k < 0 || k >= len(v.Chunks) {
		return 0
	}
	var s float64
	tiles := v.Chunks[k].Tiles
	for i := range tiles {
		s += tiles[i].Bits[l]
	}
	return s
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// Validate checks structural invariants: tiles partition the frame,
// sizes grow with quality, PSPNR values are sane, and every float is
// finite — the wire's raw bits can carry a NaN or an infinity, and each
// range check below is false on a NaN.
func (v *Video) Validate() error {
	if v.W <= 0 || v.H <= 0 || v.FPS <= 0 || v.ChunkSec <= 0 || !finite(v.ChunkSec) {
		return fmt.Errorf("manifest: bad video header %dx%d@%d/%vs", v.W, v.H, v.FPS, v.ChunkSec)
	}
	if v.FirstChunk < 0 || v.FirstChunk > len(v.Chunks) {
		return fmt.Errorf("manifest: availability window start %d outside [0,%d]", v.FirstChunk, len(v.Chunks))
	}
	if v.Seq < 0 || v.WindowChunks < 0 {
		return fmt.Errorf("manifest: negative live field (seq %d, window %d)", v.Seq, v.WindowChunks)
	}
	for _, c := range v.Chunks {
		area := 0
		for ti := range c.Tiles {
			t := &c.Tiles[ti]
			if t.Rect.Empty() || t.Rect.X0 < 0 || t.Rect.Y0 < 0 || t.Rect.X1 > v.W || t.Rect.Y1 > v.H {
				return fmt.Errorf("manifest: chunk %d tile %d rect %v out of %dx%d", c.Index, ti, t.Rect, v.W, v.H)
			}
			area += t.Rect.Area()
			for j := 0; j < tileFloats; j++ {
				if f := *t.field(j); !finite(f) {
					return fmt.Errorf("manifest: chunk %d tile %d float %d is %v", c.Index, ti, j, f)
				}
			}
			// Level 0 is highest quality: sizes must not grow as
			// quality drops.
			for l := 1; l < codec.NumLevels; l++ {
				if t.Bits[l] > t.Bits[l-1]+1e-9 {
					return fmt.Errorf("manifest: chunk %d tile %d size grows from level %d to %d", c.Index, ti, l-1, l)
				}
			}
			for l := 0; l < codec.NumLevels; l++ {
				if t.Bits[l] <= 0 {
					return fmt.Errorf("manifest: chunk %d tile %d level %d non-positive size", c.Index, ti, l)
				}
				if t.RefPSPNR[l] < 0 || t.RefPSPNR[l] > 100 {
					return fmt.Errorf("manifest: chunk %d tile %d level %d pspnr %v out of range", c.Index, ti, l, t.RefPSPNR[l])
				}
			}
		}
		if area != v.W*v.H {
			return fmt.Errorf("manifest: chunk %d tiles cover %d px, want %d", c.Index, area, v.W*v.H)
		}
		for oi := range c.Objects {
			for _, f := range c.Objects[oi].fields() {
				if !finite(*f) {
					return fmt.Errorf("manifest: chunk %d object sample %d holds %v", c.Index, oi, *f)
				}
			}
		}
	}
	return nil
}

// --- Lookup-table schema variants for the §6.3 compression study ---

// AnchorRatios are the action-ratio anchors at which the provider
// evaluates PSPNR offline; the power fit is regressed over them.
var AnchorRatios = []float64{1, 1.5, 2, 3, 5, 8, 12, 20}

// FullTableEntry is one row of schema (a): an explicit factor
// combination and its PSPNR per level.
type FullTableEntry struct {
	ChunkIdx, TileIdx int
	Speed, DoF, Luma  float64
	PSPNR             [codec.NumLevels]float64
}

// ReducedTableEntry is one row of schema (b): indexed by the scalar
// action ratio.
type ReducedTableEntry struct {
	ChunkIdx, TileIdx int
	Ratio             float64
	PSPNR             [codec.NumLevels]float64
}

// FullTableSize returns the serialized size in bytes of schema (a) for
// this manifest with n representative values per factor: one row per
// tile per n³ combination, 8 bytes per float (3 factors + 5 levels) plus
// 8 bytes of row addressing.
func (v *Video) FullTableSize(nPerFactor int) int {
	rows := 0
	for _, c := range v.Chunks {
		rows += len(c.Tiles)
	}
	combos := nPerFactor * nPerFactor * nPerFactor
	const rowBytes = 8 + 8*3 + 8*codec.NumLevels
	return rows * combos * rowBytes
}

// ReducedTableSize returns the serialized size in bytes of schema (b)
// with the standard anchor set.
func (v *Video) ReducedTableSize() int {
	rows := 0
	for _, c := range v.Chunks {
		rows += len(c.Tiles)
	}
	const rowBytes = 8 + 8 + 8*codec.NumLevels
	return rows * len(AnchorRatios) * rowBytes
}

// PowerTableSize returns the serialized size in bytes of schema (c):
// two floats per tile-level plus the reference PSPNR.
func (v *Video) PowerTableSize() int {
	rows := 0
	for _, c := range v.Chunks {
		rows += len(c.Tiles)
	}
	const rowBytes = 8 + codec.NumLevels*(8*3)
	return rows * rowBytes
}

// FitPowerLUT fits schema (c) coefficients from (ratio, pspnr) anchor
// observations with pspnr normalized by ref. Anchors with non-positive
// values are skipped; a flat fallback (a=1, b=0) is returned if the fit
// is degenerate.
func FitPowerLUT(ref float64, ratios, pspnrs []float64) PowerLUT {
	if ref <= 0 {
		return PowerLUT{ACoeff: 1, BExp: 0}
	}
	norm := make([]float64, len(pspnrs))
	for i, p := range pspnrs {
		norm[i] = p / ref
	}
	fit, err := mathx.FitPower(ratios, norm)
	if err != nil || math.IsNaN(fit.A) || math.IsNaN(fit.B) {
		return PowerLUT{ACoeff: 1, BExp: 0}
	}
	return PowerLUT{ACoeff: fit.A, BExp: fit.B}
}
