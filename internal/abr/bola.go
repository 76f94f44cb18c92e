package abr

import (
	"math"

	"pano/internal/codec"
)

// Controller is the chunk-level bitrate decision interface shared by
// the MPC of §6.1 and alternative algorithms. Implementations pick the
// uniform quality level whose total size becomes the chunk's tile
// budget.
type Controller interface {
	// PickLevel chooses the next chunk's level given the buffer, the
	// predicted bandwidth in bits/s, the chunk duration, the previous
	// level (-1 at start), and per-chunk plans for the lookahead
	// horizon (at least one entry). The session loop's horizon rows are
	// the manifest's shared table (player.Horizon): read-only.
	PickLevel(bufferSec, predBWbps, chunkSec float64, prev codec.Level, horizon []ChunkPlan) codec.Level
}

var (
	_ Controller = (*MPC)(nil)
	_ Controller = (*BOLA)(nil)
)

// BOLA is the buffer-occupancy controller of Spiteri et al. (BOLA,
// INFOCOM 2016), which the paper cites among the chunk-level adaptation
// algorithms 360° systems build on. It needs no bandwidth prediction:
// each level m has utility ln(S_m/S_min), and the controller maximizes
// (V·(utility + γp) − Q)/S_m where Q is the buffer in chunk units.
type BOLA struct {
	// MaxBufferSec caps the buffer (sets the V parameter).
	MaxBufferSec float64
	// GammaP is the rebuffering-avoidance utility weight.
	GammaP float64
}

// NewBOLA returns a controller sized for the given maximum buffer.
func NewBOLA(maxBufferSec float64) *BOLA {
	return &BOLA{MaxBufferSec: maxBufferSec, GammaP: 5}
}

// PickLevel implements Controller. Only the first horizon entry is
// used: BOLA is memoryless beyond the buffer level.
func (b *BOLA) PickLevel(bufferSec, _ float64, chunkSec float64, _ codec.Level, horizon []ChunkPlan) codec.Level {
	lowest := codec.Level(codec.NumLevels - 1)
	if len(horizon) == 0 || chunkSec <= 0 {
		return lowest
	}
	plan := horizon[0]
	minBits := plan.Bits[codec.NumLevels-1]
	if minBits <= 0 {
		return lowest
	}
	// Utilities, in order of decreasing quality.
	var utility [codec.NumLevels]float64
	for l := 0; l < codec.NumLevels; l++ {
		utility[l] = math.Log(plan.Bits[l] / minBits)
	}
	// V maps utility to buffer headroom, chosen so the top level's
	// score reaches zero exactly at the full buffer: near empty only
	// the lowest level scores positive, near full every level does and
	// the top wins.
	qMax := b.MaxBufferSec / chunkSec
	v := qMax / (utility[0] + b.GammaP)
	q := bufferSec / chunkSec

	best := lowest
	bestScore := math.Inf(-1)
	for l := 0; l < codec.NumLevels; l++ {
		score := (v*(utility[l]+b.GammaP) - q) / (plan.Bits[l] / minBits)
		if score > bestScore {
			bestScore = score
			best = codec.Level(l)
		}
	}
	if bestScore < 0 {
		return lowest
	}
	return best
}
