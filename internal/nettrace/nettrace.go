// Package nettrace provides network throughput traces and an emulated
// download link.
//
// The paper evaluates over two 4G/LTE throughput traces from a public
// dataset, with means 0.71 and 1.05 Mbps (§8.1). This package generates
// LTE-like synthetic traces — a three-state Markov channel (good /
// degraded / outage) with AR(1) rate evolution within a state — scaled
// to a target mean, and writes them as "t,mbps" CSV. The Link
// type integrates a trace to answer "when does a download of B bits
// started at time t finish?", which is all the streaming simulator
// needs.
package nettrace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"time"

	"pano/internal/mathx"
)

// SampleInterval is the trace sampling period.
const SampleInterval = time.Second

// Nanos rounds sec seconds to the nearest nanosecond: the one rule by
// which float seconds enter virtual time (see client.VirtualNet).
func Nanos(sec float64) time.Duration { return time.Duration(math.Round(sec * float64(time.Second))) }

// Trace is a bandwidth time series in Mbps sampled every SampleInterval.
// Playback beyond the end wraps around, so short traces can drive long
// sessions.
type Trace struct {
	Mbps []float64
}

// Mean returns the average throughput in Mbps.
func (t *Trace) Mean() float64 {
	if len(t.Mbps) == 0 {
		return 0
	}
	var s float64
	for _, v := range t.Mbps {
		s += v
	}
	return s / float64(len(t.Mbps))
}

// BandwidthAt returns the throughput in bits/second at instant at (>= 0)
// past the trace's start, wrapping past the end of the trace.
func (t *Trace) BandwidthAt(at time.Duration) float64 {
	if len(t.Mbps) == 0 {
		return 0
	}
	i := int(at / SampleInterval)
	if i < 0 || i >= len(t.Mbps) {
		// Past the end, wrap: a division, which a time inside the trace
		// does without.
		if i %= len(t.Mbps); i < 0 {
			i += len(t.Mbps)
		}
	}
	return t.Mbps[i] * 1e6
}

// Scale returns a copy of the trace scaled so its mean equals target
// Mbps. A zero-mean trace is returned unchanged.
func (t *Trace) Scale(targetMbps float64) *Trace {
	m := t.Mean()
	out := &Trace{Mbps: make([]float64, len(t.Mbps))}
	if m == 0 {
		copy(out.Mbps, t.Mbps)
		return out
	}
	k := targetMbps / m
	for i, v := range t.Mbps {
		out.Mbps[i] = v * k
	}
	return out
}

// SynthesizeLTE generates an LTE-like trace of the given duration whose
// mean is scaled to targetMbps. The channel alternates between a good
// state, a degraded state, and brief outages, with AR(1) smoothing
// within states — the burstiness profile of the paper's cellular traces.
func SynthesizeLTE(seed uint64, durationSec int, targetMbps float64) *Trace {
	rng := mathx.NewRNG(seed ^ 0x17e17e17e)
	type state int
	const (
		good state = iota
		degraded
		outage
	)
	// Mean rate per state, before scaling.
	means := map[state]float64{good: 1.6, degraded: 0.6, outage: 0.05}
	// Transition probabilities per second.
	next := func(s state) state {
		r := rng.Float64()
		switch s {
		case good:
			if r < 0.06 {
				return degraded
			}
			if r < 0.07 {
				return outage
			}
		case degraded:
			if r < 0.10 {
				return good
			}
			if r < 0.13 {
				return outage
			}
		case outage:
			if r < 0.5 {
				return degraded
			}
		}
		return s
	}
	tr := &Trace{Mbps: make([]float64, durationSec)}
	s := good
	rate := means[good]
	for i := 0; i < durationSec; i++ {
		s = next(s)
		target := means[s] * (1 + 0.25*rng.Norm())
		if target < 0.01 {
			target = 0.01
		}
		rate = 0.7*rate + 0.3*target // AR(1) smoothing
		tr.Mbps[i] = rate
	}
	return tr.Scale(targetMbps)
}

// Link emulates a download pipe driven by a trace, with a fixed
// round-trip time charged per object.
type Link struct {
	Trace  *Trace
	RTTSec float64
}

// NewLink returns a link over the trace with a 50 ms RTT.
func NewLink(t *Trace) *Link { return &Link{Trace: t, RTTSec: 0.05} }

// DownloadTime returns how long a transfer of bits started at instant
// start takes, one RTT included: the trace's bandwidth integrated from
// start, sample by sample, to the instant the last bit lands, which Nanos
// rounds within its sample.
func (l *Link) DownloadTime(start time.Duration, bits float64) time.Duration {
	rtt := Nanos(l.RTTSec)
	if bits <= 0 {
		return rtt
	}
	t, remaining := start, bits
	for i := 0; i < 1<<20; i++ { // hard cap guards against zero traces
		bw := l.Trace.BandwidthAt(t)
		if bw <= 0 {
			bw = 1e3 // floor: 1 kbps keeps the integral finite
		}
		boundary := (t/SampleInterval + 1) * SampleInterval
		can := bw * (boundary - t).Seconds()
		if can >= remaining {
			return t + Nanos(remaining/bw) - start + rtt
		}
		remaining -= can
		t = boundary
	}
	return t - start + rtt
}

// WriteCSV serializes the trace as "t,mbps" rows.
func (t *Trace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "t,mbps"); err != nil {
		return err
	}
	for i, v := range t.Mbps {
		if _, err := fmt.Fprintf(bw, "%d,%.4f\n", i, v); err != nil {
			return err
		}
	}
	return bw.Flush()
}
