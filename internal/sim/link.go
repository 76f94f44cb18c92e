package sim

import (
	"pano/internal/codec"
	"pano/internal/manifest"
	"pano/internal/nettrace"
)

// RateForLevel returns the video's average bitrate in bits/second when
// every tile of every chunk is encoded at level l.
func RateForLevel(m *manifest.Video, l codec.Level) float64 {
	if m.NumChunks() == 0 {
		return 0
	}
	var bits float64
	for k := range m.Chunks {
		bits += m.ChunkBits(k, l)
	}
	return bits / m.DurationSec()
}

// ScaledLink builds an LTE-like emulated link whose mean throughput is
// frac times the video's top-level bitrate. The paper's two cellular
// traces (0.71 and 1.05 Mbps against 2880x1440 x264 video) sit in the
// band where the top level is not always affordable but the lowest
// level never stalls; this helper reproduces that operating point for
// the simulator's synthetic videos, whose absolute bitrates are smaller
// than x264's (see DESIGN.md's substitution table).
func ScaledLink(m *manifest.Video, frac float64, seed uint64) *nettrace.Link {
	top := RateForLevel(m, 0)
	target := frac * top / 1e6
	dur := int(m.DurationSec())
	if dur < 60 {
		dur = 60
	}
	return nettrace.NewLink(nettrace.SynthesizeLTE(seed, 4*dur, target))
}

// Paper-equivalent operating fractions for the two evaluation traces:
// Trace #1 corresponds to the 0.71 Mbps link, Trace #2 to 1.05 Mbps.
// The paper streams 2880×1440 x264 video over these links, i.e. the
// link affords well under a third of the top encoding rate — a heavily
// constrained regime where spatial quality allocation is decisive.
const (
	Trace1Frac = 0.18
	Trace2Frac = 0.30
)
