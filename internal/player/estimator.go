package player

import (
	"math"

	"pano/internal/abr"
	"pano/internal/codec"
	"pano/internal/geom"
	"pano/internal/jnd"
	"pano/internal/manifest"
	"pano/internal/quality"
	"pano/internal/viewport"
)

// Estimator turns the client's viewpoint history and the manifest into
// the ChunkView a Planner consumes. It implements §6.1's robustness
// strategy: ranges and lower bounds instead of exact predictions.
type Estimator struct {
	// Pred extrapolates the viewpoint center.
	Pred *viewport.Predictor
	// SpeedWindowSec is the lookback for the lower-bound speed
	// estimate (the paper uses the last 2 s).
	SpeedWindowSec float64
}

// NewEstimator returns an estimator with the paper's windows.
func NewEstimator() *Estimator {
	return &Estimator{
		Pred:           viewport.NewPredictor(),
		SpeedWindowSec: 2,
	}
}

// chunkView is chunk k's view with the viewpoint at center moving at
// speed, its focus the DoF of the tile under center and its l factor
// read at media time t over tr: the largest swing of the manifest
// luminance under the viewpoint — the AvgLuma of the tile it is in —
// over the last viewport.LumaWindowSec, at every fifth trace sample.
func chunkView(m *manifest.Video, tr *viewport.Trace, k int, center geom.Angle, speed, t float64) ChunkView {
	swing := tr.MaxLumaChange(t, viewport.LumaWindowSec, 5*viewport.RefreshInterval, func(a geom.Angle, u float64) float64 {
		c := clampChunk(m, int(u/m.ChunkSec))
		return m.Chunks[c].Tiles[TileAt(m, c, a)].AvgLuma
	})
	k = clampChunk(m, k)
	return ChunkView{
		Center:     center,
		SpeedLB:    speed,
		LumaChange: swing,
		FocusDoF:   m.Chunks[k].Tiles[TileAt(m, k, center)].AvgDoF,
	}
}

// View builds the predicted ChunkView for chunk k, deciding at media
// time now (the playhead when the download is scheduled) for playback
// at the chunk's midpoint.
func (e *Estimator) View(m *manifest.Video, tr *viewport.Trace, k int, now float64) ChunkView {
	tMid := (float64(k) + 0.5) * m.ChunkSec
	horizon := tMid - now
	if horizon < 0 {
		horizon = 0
	}
	center := e.Pred.Predict(tr, now, horizon)
	return chunkView(m, tr, k, center, tr.MinSpeedIn(math.Max(0, now-e.SpeedWindowSec), now), now)
}

// BestGuess is the view v, built by View at media time now over tr, with
// the speed *estimate* (the current speed) instead of the conservative
// lower bound. Quality selection uses the bound (§6.1); the client's
// PSPNR *prediction* — whose accuracy Figure 16(a) measures — uses the
// best guess, so a session derives it from the view it planned with.
func (v ChunkView) BestGuess(tr *viewport.Trace, now float64) ChunkView {
	v.SpeedLB = tr.SpeedAt(now)
	return v
}

// ActualView builds the ground-truth view of chunk k at its playback
// midpoint: exact speed instead of the lower bound, actual center. The
// simulator uses it to score delivered quality, and the gap between
// View and ActualView is exactly the estimation error of Figure 16(a).
func (e *Estimator) ActualView(m *manifest.Video, tr *viewport.Trace, k int) ChunkView {
	tMid := (float64(k) + 0.5) * m.ChunkSec
	return chunkView(m, tr, k, tr.At(tMid), tr.SpeedAt(tMid), tMid)
}

func clampChunk(m *manifest.Video, k int) int {
	if k < 0 {
		return 0
	}
	if k >= m.NumChunks() {
		return m.NumChunks() - 1
	}
	return k
}

// FramePSPNR is the client's whole-panorama PSPNR estimate for chunk k
// under a given view: the §6.1 objective evaluated from the manifest's
// lookup table. The viewpoint enters only through the per-tile factors
// (Equation 4), never as a visibility mask. A nil profile forces the
// action ratio to 1 (traditional content-JND PSPNR).
func FramePSPNR(m *manifest.Video, k int, alloc abr.Allocation, view ChunkView, prof *jnd.Profile) float64 {
	return FramePSPNRDegraded(m, k, alloc, nil, view, prof)
}

// StalePMSEFactor inflates the perceptible distortion of a skipped
// tile. A skipped tile is stitched at the previous chunk's content
// (§7), which at best looks like the lowest encoding level with extra
// temporal mismatch; doubling the lowest level's PMSE is a conservative
// stand-in for that mismatch in the table-driven quality model.
const StalePMSEFactor = 2.0

// FramePSPNRDegraded is FramePSPNR with a per-tile staleness mask:
// tiles whose fetch was abandoned by the degradation ladder (stale[i]
// true) are scored at the lowest level with StalePMSEFactor extra
// distortion instead of their allocated level. A nil mask scores every
// tile as delivered.
func FramePSPNRDegraded(m *manifest.Video, k int, alloc abr.Allocation, stale []bool, view ChunkView, prof *jnd.Profile) float64 {
	var pool quality.PMSEPool
	for i := range m.Chunks[k].Tiles {
		t := &m.Chunks[k].Tiles[i]
		ratio := 1.0
		if prof != nil {
			ratio = prof.ActionRatio(FactorsFor(t, view))
		}
		lv, pmseFactor := alloc[i], 1.0
		if stale != nil && i < len(stale) && stale[i] {
			lv = codec.Level(codec.NumLevels - 1)
			pmseFactor = StalePMSEFactor
		}
		// The factor (1 or 2) scales by a power of two, which is exact:
		// area·(factor·pmse) is area·factor·pmse to the bit.
		pool.Add(float64(t.Rect.Area()), pmseFactor*PMSEFromPSPNR(EstimatePSPNR(t, lv, ratio)))
	}
	return pool.PSPNR()
}

// FramePSNR is the JND-agnostic whole-panorama PSNR of a delivered
// chunk — the "PSNR" reference predictor of Figure 8.
func FramePSNR(m *manifest.Video, k int, alloc abr.Allocation) float64 {
	var pool quality.PMSEPool
	for i := range m.Chunks[k].Tiles {
		t := &m.Chunks[k].Tiles[i]
		pool.Add(float64(t.Rect.Area()), PMSEFromPSPNR(t.PSNR[alloc[i]]))
	}
	return pool.PSPNR()
}

// ViewportPSPNR scores the quality the user actually perceives for
// chunk k: the area-weighted perceptible distortion of the tiles
// covered by the true viewport, under the true factors, aggregated to
// dB (the evaluation metric of §8.1). A nil profile disables the
// action-dependent ratio (A=1), yielding the traditional
// content-JND-only PSPNR.
func ViewportPSPNR(m *manifest.Video, k int, alloc abr.Allocation, actual ChunkView, prof *jnd.Profile) float64 {
	g := geom.Frame{W: m.W, H: m.H}
	vp := geom.DefaultViewport(actual.Center)
	foot := vp.Footprint(g)
	var pool quality.PMSEPool
	for i := range m.Chunks[k].Tiles {
		t := &m.Chunks[k].Tiles[i]
		overlap := 0
		for _, r := range foot {
			overlap += t.Rect.OverlapArea(r)
		}
		if overlap == 0 {
			continue
		}
		ratio := 1.0
		if prof != nil {
			ratio = prof.ActionRatio(FactorsFor(t, actual))
		}
		pool.Add(float64(overlap), PMSEFromPSPNR(EstimatePSPNR(t, alloc[i], ratio)))
	}
	return pool.PSPNR()
}
