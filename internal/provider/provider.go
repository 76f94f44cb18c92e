// Package provider implements the video provider's offline preprocessing
// pipeline (§5, §6.3, §7):
//
//  1. Chunk the video into 1 s chunks and compute per-unit-tile
//     efficiency scores (Equation 5) averaged over history viewpoint
//     traces.
//  2. Group unit tiles into N variable-size tiles (Pano), a uniform
//     grid (Flare-style baselines), bit-driven clusters (ClusTile), or
//     one whole-frame tile.
//  3. For every tile and quality level, estimate the encoded size and
//     the PSPNR-vs-action-ratio curve, compressed to the power-law
//     schema of Figure 12(c), and assemble the manifest.
//
// Feature extraction (object trajectories, luminance, depth) uses the
// scene's ground truth, standing in for the paper's Yolo+KCF tracking.
package provider

import (
	"fmt"
	"math"
	"sync"

	"pano/internal/codec"
	"pano/internal/frame"
	"pano/internal/geom"
	"pano/internal/jnd"
	"pano/internal/manifest"
	"pano/internal/parallel"
	"pano/internal/quality"
	"pano/internal/scene"
	"pano/internal/tiling"
	"pano/internal/viewport"
)

// Mode selects the tiling strategy.
type Mode int

// Tiling strategies.
const (
	// ModePano groups unit tiles by PSPNR-efficiency similarity (§5).
	ModePano Mode = iota
	// ModeUniform uses a fixed uniform grid (viewport-driven baselines).
	ModeUniform
	// ModeClusTile groups unit tiles by encoded-size similarity,
	// approximating ClusTile's compression-efficiency clustering.
	ModeClusTile
	// ModeWhole streams the entire frame as a single tile.
	ModeWhole
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModePano:
		return "pano"
	case ModeUniform:
		return "uniform"
	case ModeClusTile:
		return "clustile"
	case ModeWhole:
		return "whole"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ChunkSec is the chunk duration every manifest is cut to.
const ChunkSec = 1.0

// profile is the 360JND profile efficiency scores weigh tiles with.
var profile = jnd.Default()

// Config controls preprocessing.
type Config struct {
	Mode Mode
	// Tiles is N, the number of variable-size tiles (default 30).
	Tiles int
	// FrameStride samples one frame in this many for quality estimation
	// (default 10, the §6.3 optimization; 1 = per-frame PSPNR).
	FrameStride int
	// Encoder is the codec model (default codec.NewEncoder()).
	Encoder *codec.Encoder
}

// DefaultConfig returns Pano's defaults.
func DefaultConfig() Config {
	return Config{
		Mode:        ModePano,
		Tiles:       tiling.DefaultTiles,
		FrameStride: 10,
		Encoder:     codec.NewEncoder(),
	}
}

// resolve fills zero fields with the defaults, checks the video and what
// that leaves as it found it, and returns the number of whole chunks the
// video holds.
func (c *Config) resolve(v *scene.Video) (numChunks int, err error) {
	d := DefaultConfig()
	if c.Tiles == 0 {
		c.Tiles = d.Tiles
	}
	if c.FrameStride == 0 {
		c.FrameStride = d.FrameStride
	}
	if c.Encoder == nil {
		c.Encoder = d.Encoder
	}
	if err := v.Validate(); err != nil {
		return 0, err
	}
	if v.W%tiling.UnitCols != 0 || v.H%tiling.UnitRows != 0 {
		return 0, fmt.Errorf("provider: video %dx%d not divisible by unit grid %dx%d",
			v.W, v.H, tiling.UnitCols, tiling.UnitRows)
	}
	if c.FrameStride < 0 || c.Tiles < 0 {
		return 0, fmt.Errorf("provider: frame stride %d, %d tiles: want positive counts", c.FrameStride, c.Tiles)
	}
	return int(float64(v.DurationSec) / ChunkSec), nil
}

// Preprocess builds the manifest for a video given history viewpoint
// traces (may be empty: scores then assume a static viewpoint).
func Preprocess(v *scene.Video, history []*viewport.Trace, cfg Config) (*manifest.Video, error) {
	return preprocess(v, history, cfg, tiling.Grid6x12)
}

// preprocess is Preprocess with grid as ModeUniform's grid, which is
// otherwise 6×12, Flare's.
func preprocess(v *scene.Video, history []*viewport.Trace, cfg Config, grid tiling.Grid) (*manifest.Video, error) {
	numChunks, err := cfg.resolve(v)
	if err != nil {
		return nil, err
	}
	out := &manifest.Video{
		Name:     v.Name,
		Genre:    v.Genre.String(),
		W:        v.W,
		H:        v.H,
		FPS:      v.FPS,
		ChunkSec: ChunkSec,
	}
	p := &preprocessor{cfg: cfg, grid: grid, video: v, history: history}

	// Chunks are independent; preprocess them in parallel (each worker
	// renders, distorts, and analyzes its own frames — there is no
	// shared mutable state). The per-chunk kernels fan out further
	// (frames, unit-tile scoring, per-(tile, level) table build), all
	// bounded by the same process-wide worker count.
	out.Chunks = make([]manifest.Chunk, numChunks)
	var (
		firstErr error
		errOnce  sync.Once
	)
	parallel.For(numChunks, func(k int) {
		ch, err := p.chunk(k)
		if err != nil {
			errOnce.Do(func() {
				firstErr = fmt.Errorf("provider: chunk %d: %w", k, err)
			})
			return
		}
		out.Chunks[k] = ch
	})
	if firstErr != nil {
		return nil, firstErr
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("provider: produced invalid manifest: %w", err)
	}
	return out, nil
}

// ChunkAt preprocesses a single chunk — the just-in-time entry point
// internal/live's encode stage uses, where whole-video Preprocess would
// blow the per-chunk publish deadline. It runs exactly the kernels
// Preprocess runs for chunk k, so a live-published chunk is
// bit-identical to its VOD counterpart under the same Config.
func ChunkAt(v *scene.Video, history []*viewport.Trace, cfg Config, k int) (manifest.Chunk, error) {
	numChunks, err := cfg.resolve(v)
	if err != nil {
		return manifest.Chunk{}, err
	}
	if k < 0 || k >= numChunks {
		return manifest.Chunk{}, fmt.Errorf("provider: chunk %d out of range [0,%d)", k, numChunks)
	}
	p := &preprocessor{cfg: cfg, grid: tiling.Grid6x12, video: v, history: history}
	ch, err := p.chunk(k)
	if err != nil {
		return manifest.Chunk{}, fmt.Errorf("provider: chunk %d: %w", k, err)
	}
	return ch, nil
}

type preprocessor struct {
	cfg     Config
	grid    tiling.Grid // ModeUniform's
	video   *scene.Video
	history []*viewport.Trace
}

// sampledFrame bundles one analyzed frame: the original, its content
// JND at block granularity, and the per-level absolute coding error.
type sampledFrame struct {
	orig        *frame.Frame
	content     []float64 // jnd.ContentBlocks of the full frame
	contentCols int
	errs        [codec.NumLevels][]uint8 // |orig − encoded| per level, row-major; views of slab
	slab        *[]uint8                 // from errorSlabs, returned by release
}

// errorSlabs recycles the per-frame error planes (NumLevels bytes per
// pixel) across chunks.
var errorSlabs = sync.Pool{New: func() any { return new([]uint8) }}

func (p *preprocessor) analyzeFrame(idx int) (*sampledFrame, error) {
	orig := p.video.RenderFrame(idx)
	sf := &sampledFrame{orig: orig}
	sf.content, sf.contentCols = jnd.ContentBlocks(orig, geom.Rect{X1: orig.W, Y1: orig.H})
	size := len(orig.Pix)
	sf.slab = errorSlabs.Get().(*[]uint8)
	if cap(*sf.slab) < codec.NumLevels*size {
		*sf.slab = make([]uint8, codec.NumLevels*size)
	}
	planes := (*sf.slab)[:codec.NumLevels*size]
	if err := p.cfg.Encoder.ErrorPlanes(orig, planes); err != nil {
		sf.release()
		return nil, err
	}
	for l := range sf.errs {
		sf.errs[l] = planes[l*size : (l+1)*size]
	}
	return sf, nil
}

// release returns the error planes to the pool; the frame must not be
// read afterwards.
func (sf *sampledFrame) release() {
	errorSlabs.Put(sf.slab)
	*sf = sampledFrame{}
}

// perceptibleError is the one pixel kernel of the chunk analysis. For
// rect r of one sampled frame at one level it adds to sums[i] the sum
// over pixels of max(d − c·anchors[i], 0)², where d is the pixel's
// coding error and c its content JND (the PMSE numerator at action
// ratio anchors[i]), accumulated in row-major pixel order, and returns
// Σd² (the MSE numerator). anchors must be non-empty, positive and
// ascending: the thresholds c·a then ascend too (c > 0).
//
// Which anchor stops a pixel is a coin flip, so the question is put per
// run (the ≤ FieldBlockSize pixels of a row that share one c, a short
// run padded with errors of 0), never per pixel: the first threshold
// above the run's peak error ends the run, every anchor before it adds
// all eight excesses, +0 for a pixel below it, and a sum is left holding
// the non-zero addends of a per-pixel test in their order (DESIGN.md §4).
func perceptibleError(sf *sampledFrame, level int, r geom.Rect, anchors, sums []float64) (sq uint64) {
	const bs = jnd.FieldBlockSize
	w, errs := sf.orig.W, sf.errs[level]
	sums = sums[:len(anchors)]
	var pad [bs]uint8
	for y := r.Y0; y < r.Y1; y++ {
		content := sf.content[y/bs*sf.contentCols+r.X0/bs:]
		row := errs[y*w+r.X0 : y*w+r.X1]
		for b, n := 0, bs-r.X0%bs; len(row) > 0; b, n = b+1, bs {
			e := &pad
			if n = min(n, len(row)); n == bs {
				e = (*[bs]uint8)(row)
			} else {
				clear(pad[copy(pad[:], row[:n]):])
			}
			row = row[n:]
			e0, e1, e2, e3, e4, e5, e6, e7 := uint64(e[0]), uint64(e[1]), uint64(e[2]), uint64(e[3]), uint64(e[4]), uint64(e[5]), uint64(e[6]), uint64(e[7])
			sq += e0*e0 + e1*e1 + e2*e2 + e3*e3 + e4*e4 + e5*e5 + e6*e6 + e7*e7
			peak, c := float64(max(e0, e1, e2, e3, e4, e5, e6, e7)), content[b]
			if peak < c*anchors[0] {
				continue
			}
			d := [bs]uint64{floatBits(e0), floatBits(e1), floatBits(e2), floatBits(e3), floatBits(e4), floatBits(e5), floatBits(e6), floatBits(e7)}
			for i, a := range anchors {
				th := c * a
				if peak < th {
					break
				}
				sums[i] = sums[i] + excess2(d[0], th) + excess2(d[1], th) + excess2(d[2], th) + excess2(d[3], th) +
					excess2(d[4], th) + excess2(d[5], th) + excess2(d[6], th) + excess2(d[7], th)
			}
		}
	}
	return sq
}

func floatBits(e uint64) uint64 { return math.Float64bits(float64(e)) }

// excess2 is (max(d, th) − th)², d ≥ 0 given as floatBits, th > 0: such
// floats order as their bits do, and an integer max compiles to no branch.
func excess2(d uint64, th float64) float64 {
	x := math.Float64frombits(max(d, math.Float64bits(th))) - th
	return x * x
}

// chunkFactors estimates, per unit tile, the mean action ratio over the
// history traces at the chunk midpoint (used to weight the efficiency
// scores with realistic viewing behaviour, §5's "calculating efficiency
// scores offline").
func (p *preprocessor) chunkFactors(k int, rects []geom.Rect) []float64 {
	tMid := (float64(k) + 0.5) * ChunkSec
	out := make([]float64, len(rects))
	if len(p.history) == 0 {
		for i := range out {
			out[i] = 1
		}
		return out
	}
	// What a viewer contributes depends on the trace and tMid only, not
	// on the tile.
	type viewer struct{ speed, focusDoF, luma float64 }
	viewers := make([]viewer, len(p.history))
	for i, tr := range p.history {
		viewers[i] = viewer{
			speed:    tr.SpeedAt(tMid),
			focusDoF: p.video.DepthAt(tr.At(tMid), tMid),
			luma:     tr.MaxLumaChange(tMid, viewport.LumaWindowSec, viewport.RefreshInterval, p.video.LumaAt),
		}
	}
	parallel.For(len(rects), func(i int) {
		objSpeed, tileDoF := p.tileMotionDepth(rects[i], tMid)
		var sumA float64
		for _, vw := range viewers {
			sumA += profile.ActionRatio(jnd.Factors{
				SpeedDegS:  math.Abs(vw.speed - objSpeed),
				DoFDiff:    math.Abs(tileDoF - vw.focusDoF),
				LumaChange: vw.luma,
			})
		}
		out[i] = sumA / float64(len(p.history))
	})
	return out
}

// tileMotionDepth samples the tile's mean object speed (0 where only
// background is visible) and mean depth at time t.
func (p *preprocessor) tileMotionDepth(r geom.Rect, t float64) (objSpeed, depth float64) {
	g := p.video.Geometry()
	const grid = 4
	var sSum, dSum float64
	var n int
	for gy := 0; gy < grid; gy++ {
		for gx := 0; gx < grid; gx++ {
			x := r.X0 + (2*gx+1)*r.W()/(2*grid)
			y := r.Y0 + (2*gy+1)*r.H()/(2*grid)
			a := g.ToAngle(x, y)
			if o := p.video.ObjectAt(a, t); o != nil {
				sSum += o.SpeedDegS()
				dSum += o.Depth
			} else {
				dSum += p.video.BgDepthAt(a)
			}
			n++
		}
	}
	return sSum / float64(n), dSum / float64(n)
}

func (p *preprocessor) chunk(k int) (manifest.Chunk, error) {
	framesPerChunk := int(ChunkSec * float64(p.video.FPS))
	first := k * framesPerChunk

	// Sampled frames for quality estimation (1 in FrameStride), analyzed
	// in parallel: rendering plus per-level distortion dominate.
	var sampleIdx []int
	for f := first; f < first+framesPerChunk; f += p.cfg.FrameStride {
		sampleIdx = append(sampleIdx, f)
	}
	samples := make([]*sampledFrame, len(sampleIdx))
	var (
		sampleErr  error
		sampleOnce sync.Once
	)
	parallel.For(len(sampleIdx), func(i int) {
		sf, err := p.analyzeFrame(sampleIdx[i])
		if err != nil {
			sampleOnce.Do(func() { sampleErr = err })
			return
		}
		samples[i] = sf
	})
	defer func() {
		for _, sf := range samples {
			if sf != nil {
				sf.release()
			}
		}
	}()
	if sampleErr != nil {
		return manifest.Chunk{}, sampleErr
	}
	// A mid-chunk frame for temporal activity.
	next := p.video.RenderFrame(first + framesPerChunk/2)
	key := samples[0].orig

	// Steps 1-3: score the unit grid concurrently and choose the layout.
	// Scoring is lazy per mode: only the matrix the mode's clustering
	// consumes is computed.
	unitGrid := tiling.Grid12x24
	unitRects := unitGrid.Rects(p.video.W, p.video.H)
	var layout tiling.Layout
	var err error
	switch p.cfg.Mode {
	case ModePano:
		ratios := p.chunkFactors(k, unitRects)
		layout, err = tiling.Plan(tiling.UnitRows, tiling.UnitCols, p.cfg.Tiles,
			func(row, col int) float64 {
				// PSPNR at the highest and lowest levels averaged over
				// sampled frames, with JND scaled by the history-average
				// action ratio.
				i := row*tiling.UnitCols + col
				ur := unitRects[i]
				area := float64(ur.Area())
				anchor := [1]float64{ratios[i]}
				var hi, lo float64
				for _, sf := range samples {
					var sum [2]float64
					perceptibleError(sf, 0, ur, anchor[:], sum[:1])
					perceptibleError(sf, codec.NumLevels-1, ur, anchor[:], sum[1:])
					hi += sum[0] / area
					lo += sum[1] / area
				}
				n := float64(len(samples))
				pHi := quality.PSPNRFromPMSE(hi / n)
				pLo := quality.PSPNRFromPMSE(lo / n)
				return (pHi - pLo) / float64(codec.NumLevels-1) // Equation 5
			})
	case ModeUniform:
		layout, err = tiling.UniformLayout(p.grid)
	case ModeClusTile:
		layout, err = tiling.Plan(tiling.UnitRows, tiling.UnitCols, p.cfg.Tiles,
			func(row, col int) float64 {
				ur := unitRects[row*tiling.UnitCols+col]
				return p.cfg.Encoder.FrameRegionBits(key, ur, codec.Level(2).QP())
			})
	case ModeWhole:
		layout = tiling.Layout{Rows: tiling.UnitRows, Cols: tiling.UnitCols,
			Tiles: []tiling.UnitRect{{R0: 0, C0: 0, R1: tiling.UnitRows, C1: tiling.UnitCols}}}
	default:
		err = fmt.Errorf("unknown mode %v", p.cfg.Mode)
	}
	if err != nil {
		return manifest.Chunk{}, err
	}

	// Step 4: per-tile metadata, sizes and PSPNR LUT. The raw per-level
	// quantities fan out per (tile, quality-level); the cross-level
	// monotonicity clamps and the LUT fit run in a serial pass per tile
	// afterwards, because level l reads the clamped level l-1.
	ch := manifest.Chunk{Index: k}
	tMid := (float64(k) + 0.5) * ChunkSec
	nTiles := len(layout.Tiles)
	tiles := make([]manifest.Tile, nTiles)
	parallel.For(nTiles, func(i int) {
		r := layout.Tiles[i].Pixels(p.video.W, p.video.H, layout.Rows, layout.Cols)
		t := manifest.Tile{Rect: r}
		t.AvgLuma = key.MeanLuma(r)
		t.ObjSpeedDeg, t.AvgDoF = p.tileMotionDepth(r, tMid)
		t.Bits = p.cfg.Encoder.TileLevelBits(key, next, r, framesPerChunk)
		tiles[i] = t
	})
	type levelData struct {
		mse  float64   // plain MSE, mean over samples
		pmse []float64 // PMSE per anchor ratio, mean over samples
	}
	levels := make([]levelData, nTiles*codec.NumLevels)
	parallel.For(len(levels), func(j int) {
		i, l := j/codec.NumLevels, j%codec.NumLevels
		r := tiles[i].Rect
		ld := &levels[j]
		// Plain MSE feeds the JND-agnostic PSNR used by the baselines.
		area := float64(r.Area())
		var mse float64
		acc := make([]float64, len(manifest.AnchorRatios))
		sums := make([]float64, len(manifest.AnchorRatios))
		for _, sf := range samples {
			clear(sums)
			sq := perceptibleError(sf, l, r, manifest.AnchorRatios, sums)
			mse += float64(sq) / area
			for ai, v := range sums {
				acc[ai] += v / area
			}
		}
		ld.mse = mse / float64(len(samples))
		for ai := range acc {
			acc[ai] /= float64(len(samples))
		}
		ld.pmse = acc
	})
	for i := range tiles {
		t := tiles[i]
		var pspnrs [codec.NumLevels][]float64
		for l := 0; l < codec.NumLevels; l++ {
			ld := levels[i*codec.NumLevels+l]
			t.PSNR[l] = quality.PSNR(ld.mse)
			if l > 0 && t.PSNR[l] > t.PSNR[l-1] {
				t.PSNR[l] = t.PSNR[l-1]
			}
			pspnrs[l] = make([]float64, len(ld.pmse))
			for ai, v := range ld.pmse {
				pspnrs[l][ai] = quality.PSPNRFromPMSE(v)
			}
			// Enforce monotonicity across levels: a coarser quantizer
			// occasionally rounds marginally better in a tile, but the
			// quality model (and the allocator's cost ordering) assume
			// PSPNR never improves as quality drops.
			if l > 0 {
				for ai := range pspnrs[l] {
					if pspnrs[l][ai] > pspnrs[l-1][ai] {
						pspnrs[l][ai] = pspnrs[l-1][ai]
					}
				}
			}
			t.RefPSPNR[l] = pspnrs[l][0] // anchor 0 is A=1
			t.LUT[l] = manifest.FitPowerLUT(t.RefPSPNR[l], manifest.AnchorRatios, pspnrs[l])
		}
		ch.Tiles = append(ch.Tiles, t)
	}

	// Object trajectory track: one sample per FrameStride frames (§7).
	for f := first; f < first+framesPerChunk; f += p.cfg.FrameStride {
		tt := float64(f) / float64(p.video.FPS)
		for _, o := range p.video.Objects {
			pos := o.PositionAt(tt)
			ch.Objects = append(ch.Objects, manifest.ObjectSample{
				T: tt - float64(k)*ChunkSec, Yaw: pos.Yaw, Pitch: pos.Pitch,
				SpeedDeg: o.SpeedDegS(), Depth: o.Depth,
			})
		}
	}
	// What the provider emits is what the wire carries: VOD, live and
	// every decoded copy hold the same binary32 values (DESIGN.md §4).
	ch.RoundToWire()
	return ch, nil
}
