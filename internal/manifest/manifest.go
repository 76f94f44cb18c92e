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
// pano-tracegen and pano-server -manifest) a Video is one canonical
// binary encoding — wire.go — that carries every tile and object float
// as an integer code at its field group's step (FieldGroups): sizes
// log-quantized and rounded up, the rest fixed-point, each step the
// group's consequence knee plus a margin, as the `lut` experiment
// measures it. The provider rounds each float it emits to its step
// (Chunk.RoundToWire), so the wire is lossless for every manifest it
// makes. The json tags below serve only a test or debugger that
// json.Marshals one; /manifest.mpd is the human-readable view.
package manifest

import (
	"fmt"
	"math"
	"time"

	"pano/internal/codec"
	"pano/internal/geom"
	"pano/internal/mathx"
	"pano/internal/nettrace"
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

// TileAt returns the index of the first tile whose rect contains pixel
// (x, y); ok is false when none does (on a valid manifest, a pixel
// outside the frame).
func (c *Chunk) TileAt(x, y int) (int, bool) {
	for i := range c.Tiles {
		if c.Tiles[i].Rect.Contains(x, y) {
			return i, true
		}
	}
	return 0, false
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

// RefreshInterval is a live manifest's refresh cadence, half a chunk
// (rounded to the nanosecond, as every float second is) floored at
// 100 ms: the origin's live max-age, the edge's live TTL (each capped at
// its own) and the client's default poll.
func (v *Video) RefreshInterval() time.Duration {
	return max(nettrace.Nanos(v.ChunkSec/2), 100*time.Millisecond)
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

// unrepresentable names the first of c's floats that its group's step
// cannot hold (a NaN, an infinity, a value past the step's range, a size
// not above zero), or returns "".
func (c *Chunk) unrepresentable() string {
	for i := range c.Tiles {
		f := c.Tiles[i].floats()
		for j, x := range &f {
			if !tileCols[j].step.representable(*x) {
				return fmt.Sprintf("tile %d %s", i, tileCols[j].name)
			}
		}
	}
	for i := range c.Objects {
		f := c.Objects[i].floats()
		for k, x := range &f {
			if !objectCols[k].step.representable(*x) {
				return fmt.Sprintf("object sample %d %s", i, objectCols[k].name)
			}
		}
	}
	return ""
}

// Validate checks structural invariants: tiles partition the frame,
// sizes grow with quality, PSPNR values are sane, LUT coefficients are
// positive, and every tile and object float lies in its step's range,
// so a valid Video survives Marshal and Unmarshal rounded — and is not
// a NaN, on which each range check below is false. Marshal writes a
// float out of range as a reserved code that Unmarshal refuses.
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
	for ci := range v.Chunks {
		c := &v.Chunks[ci]
		area := 0
		for ti := range c.Tiles {
			t := &c.Tiles[ti]
			if t.Rect.Empty() || t.Rect.X0 < 0 || t.Rect.Y0 < 0 || t.Rect.X1 > v.W || t.Rect.Y1 > v.H {
				return fmt.Errorf("manifest: chunk %d tile %d rect %v out of %dx%d", c.Index, ti, t.Rect, v.W, v.H)
			}
			area += t.Rect.Area()
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
				// a ≤ 0 puts the tile's PSPNR at ≤ 0 dB for every ratio,
				// which skews every plan and score of the tile.
				if t.LUT[l].ACoeff <= 0 {
					return fmt.Errorf("manifest: chunk %d tile %d level %d LUT coefficient %v not positive", c.Index, ti, l, t.LUT[l].ACoeff)
				}
			}
		}
		if area != v.W*v.H {
			return fmt.Errorf("manifest: chunk %d tiles cover %d px, want %d", c.Index, area, v.W*v.H)
		}
		if name := c.unrepresentable(); name != "" {
			return fmt.Errorf("manifest: chunk %d %s is not representable on the wire", c.Index, name)
		}
	}
	return nil
}

// --- Lookup-table schema variants for the §6.3 compression study ---

// AnchorRatios are the action-ratio anchors at which the provider
// evaluates PSPNR offline; the power fit is regressed over them.
var AnchorRatios = []float64{1, 1.5, 2, 3, 5, 8, 12, 20}

// The schema sizes below count every float as Figure 12 does, at 4
// bytes, and 8 bytes of row addressing per row.
const schemaFloatBytes = 4

// FullTableSize returns the serialized size in bytes of schema (a) for
// this manifest with n representative values per factor: one row per
// tile per n³ combination, 3 factors + 5 levels of floats plus the row
// address.
func (v *Video) FullTableSize(nPerFactor int) int {
	rows := 0
	for _, c := range v.Chunks {
		rows += len(c.Tiles)
	}
	combos := nPerFactor * nPerFactor * nPerFactor
	const rowBytes = 8 + schemaFloatBytes*(3+codec.NumLevels)
	return rows * combos * rowBytes
}

// ReducedTableSize returns the serialized size in bytes of schema (b)
// with the standard anchor set.
func (v *Video) ReducedTableSize() int {
	rows := 0
	for _, c := range v.Chunks {
		rows += len(c.Tiles)
	}
	const rowBytes = 8 + schemaFloatBytes*(1+codec.NumLevels)
	return rows * len(AnchorRatios) * rowBytes
}

// PowerTableSize returns the serialized size in bytes of schema (c):
// two floats per tile and level plus the level's reference PSPNR.
func (v *Video) PowerTableSize() int {
	rows := 0
	for _, c := range v.Chunks {
		rows += len(c.Tiles)
	}
	const rowBytes = 8 + schemaFloatBytes*3*codec.NumLevels
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
