package sim

import (
	"fmt"
	"math"

	"pano/internal/abr"
	"pano/internal/codec"
	"pano/internal/geom"
	"pano/internal/jnd"
	"pano/internal/manifest"
	"pano/internal/quality"
	"pano/internal/scene"
	"pano/internal/tiling"
	"pano/internal/viewport"
)

// pixelFramePSPNR scores the delivered quality of chunk k from actual
// pixels, over the whole panorama, exactly as Equation 1 and the §6.1
// objective define PSPNR: it renders the chunk's mid frame, applies
// each unit cell's delivered quantization (the QP of the manifest tile
// covering it), and computes the perceptible error against the
// ground-truth content JND scaled by the cell's true action ratio. The
// viewpoint enters only through the factors — relative speed, DoF
// difference to the focused object, recent luminance change — never as
// a visibility mask.
//
// Because the same pixels at the same QP always produce the same
// distortion, the score is completely independent of how a system tiled
// the video — it measures what was delivered, not what the manifest
// claims.
func pixelFramePSPNR(m *manifest.Video, v *scene.Video, k int, alloc abr.Allocation, tr *viewport.Trace, prof *jnd.Profile, enc *codec.Encoder, cache *jnd.FieldCache) float64 {
	tMid := (float64(k) + 0.5) * m.ChunkSec
	center := tr.At(tMid)
	vpSpeed := tr.SpeedAt(tMid)
	focusDoF := v.DepthAt(center, tMid)
	lumaSwing := tr.MaxLumaChange(tMid, viewport.LumaWindowSec, 5*viewport.RefreshInterval, v.LumaAt)

	fidx := int(tMid * float64(v.FPS))
	if fidx >= v.Frames() {
		fidx = v.Frames() - 1
	}
	orig := v.RenderFrame(fidx)
	// Content-JND fields depend only on the rendered original, so the
	// cache key is (video, frame); rendering is deterministic.
	cacheKey := fmt.Sprintf("%s/f%d", v.Name, fidx)

	g := geom.Frame{W: m.W, H: m.H}
	cells := tiling.Grid12x24.Rects(m.W, m.H)

	var pool quality.PMSEPool
	for _, cell := range cells {
		cx, cy := (cell.X0+cell.X1)/2, (cell.Y0+cell.Y1)/2
		a := g.ToAngle(cx, cy)
		var objSpeed, depth float64
		if o := v.ObjectAt(a, tMid); o != nil {
			objSpeed = o.SpeedDegS()
			depth = o.Depth
		} else {
			depth = v.BgDepthAt(a)
		}
		factors := jnd.Factors{
			SpeedDegS:  math.Abs(vpSpeed - objSpeed),
			DoFDiff:    math.Abs(depth - focusDoF),
			LumaChange: lumaSwing,
		}
		ti, _ := m.Chunks[k].TileAt(cx, cy)
		encCell, err := enc.DistortRegion(orig, cell, alloc[ti].QP())
		if err != nil {
			continue
		}
		pmse, err := quality.TilePMSE(prof, cache, cacheKey, orig, encCell, cell, factors)
		if err != nil {
			continue
		}
		pool.Add(float64(cell.Area()), pmse)
	}
	return pool.PSPNR()
}
