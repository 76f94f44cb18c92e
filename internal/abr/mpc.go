package abr

import (
	"math"

	"pano/internal/codec"
)

// ChunkPlan gives the MPC controller one future chunk's menu: total size
// and a representative quality value per uniform level assignment.
type ChunkPlan struct {
	Bits    [codec.NumLevels]float64
	Quality [codec.NumLevels]float64
}

// MPC is the chunk-level bitrate controller of §6.1 (model-predictive
// control after Yin et al. [64]): it enumerates level sequences over a
// short horizon, simulates the buffer under predicted bandwidth, and
// commits the first step of the best sequence.
type MPC struct {
	// Horizon is the lookahead depth in chunks.
	Horizon int
	// TargetBufferSec is the buffer length target.
	TargetBufferSec float64
	// RebufPenalty converts rebuffer seconds into quality units.
	RebufPenalty float64
	// SwitchPenalty converts level jumps into quality units.
	SwitchPenalty float64
	// BufferPenalty converts deviation from the buffer target into
	// quality units (keeps the controller near its target).
	BufferPenalty float64
}

// NewMPC returns a controller with the paper's defaults: 3-chunk
// horizon and a configurable buffer target (the paper tests {1,2,3} s).
func NewMPC(targetBufferSec float64) *MPC {
	return &MPC{
		Horizon:         3,
		TargetBufferSec: targetBufferSec,
		RebufPenalty:    50,
		SwitchPenalty:   0.2,
		BufferPenalty:   0.5,
	}
}

// PickLevel chooses the uniform quality level for the next chunk given
// the current buffer, predicted bandwidth (bits/s), the chunk duration,
// the previous chunk's level (for switch penalties; pass -1 at start),
// and the horizon's chunk plans (at least one; shorter horizons are
// evaluated as-is). The resulting level's Bits value is the chunk's tile
// budget.
func (m *MPC) PickLevel(bufferSec, predBWbps, chunkSec float64, prev codec.Level, horizon []ChunkPlan) codec.Level {
	if len(horizon) == 0 {
		return codec.Level(codec.NumLevels - 1)
	}
	h := m.Horizon
	if h > len(horizon) {
		h = len(horizon)
	}
	if h < 1 {
		h = 1
	}
	if predBWbps <= 0 {
		predBWbps = 1e3
	}
	// dls[step][l] is horizon[step]'s download time at level l. Every node
	// of the tree at that step reads it, so it is divided once per call.
	var few [4][codec.NumLevels]float64
	dls := few[:0]
	if h > len(few) {
		dls = make([][codec.NumLevels]float64, 0, h)
	}
	for _, p := range horizon[:h] {
		var row [codec.NumLevels]float64
		for l := range row {
			row[l] = p.Bits[l] / predBWbps
		}
		dls = append(dls, row)
	}
	bestFirst := codec.Level(codec.NumLevels - 1)
	bestScore := math.Inf(-1)
	// first is the sequence's first level, the one a better score commits.
	// The last step scores its leaves in place.
	var rec func(step int, buf, score float64, last, first codec.Level)
	rec = func(step int, buf, score float64, last, first codec.Level) {
		for l := 0; l < codec.NumLevels; l++ {
			lv := codec.Level(l)
			if step == 0 {
				first = lv
			}
			// The builtin max is math.Max, NaN and signed zeros alike,
			// without the call.
			dl := dls[step][l]
			rebuf := max(dl-buf, 0)
			nb := max(buf-dl, 0) + chunkSec
			s := score + horizon[step].Quality[l] - m.RebufPenalty*rebuf -
				m.BufferPenalty*math.Abs(nb-m.TargetBufferSec)
			if last >= 0 {
				s -= m.SwitchPenalty * math.Abs(float64(lv-last))
			}
			if step+1 < h {
				rec(step+1, nb, s, lv, first)
			} else if s > bestScore {
				bestScore = s
				bestFirst = first
			}
		}
	}
	rec(0, bufferSec, 0, prev, bestFirst)
	return bestFirst
}

// BandwidthPredictor estimates near-future throughput with a harmonic
// mean over a sliding window of observed chunk throughputs — the robust
// estimator commonly paired with MPC.
type BandwidthPredictor struct {
	// Window is the number of recent observations used.
	Window  int
	samples []float64
}

// NewBandwidthPredictor returns a predictor over the last 5 downloads.
func NewBandwidthPredictor() *BandwidthPredictor {
	return &BandwidthPredictor{Window: 5}
}

// Observe records a measured throughput in bits/s.
func (p *BandwidthPredictor) Observe(bps float64) {
	if bps <= 0 {
		return
	}
	p.samples = append(p.samples, bps)
	if len(p.samples) > p.Window {
		p.samples = p.samples[len(p.samples)-p.Window:]
	}
}

// Predict returns the harmonic-mean estimate, or 0 with no history.
func (p *BandwidthPredictor) Predict() float64 {
	if len(p.samples) == 0 {
		return 0
	}
	var inv float64
	for _, s := range p.samples {
		inv += 1 / s
	}
	return float64(len(p.samples)) / inv
}
