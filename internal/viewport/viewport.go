// Package viewport provides viewpoint trajectory traces and the
// client-side estimators of §6: linear-regression viewpoint prediction
// (as in Flare) and the conservative lower-bound factor estimates that
// make Pano robust to prediction error (Figure 10).
//
// A trace is a sequence of (time, direction) samples at a fixed refresh
// interval (0.05 s on the paper's HTC Vive rig). Synthetic traces follow
// the paper's §8.5 recipe: the viewpoint tracks a randomly picked object
// 70% of the time and dwells on a random region the remaining 30%.
package viewport

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"pano/internal/geom"
	"pano/internal/mathx"
	"pano/internal/scene"
)

// RefreshInterval is the sampling period of viewpoint traces in seconds,
// matching mainstream VR devices (§8.1).
const RefreshInterval = 0.05

// LumaWindowSec is the lookback of the 360JND model's luminance factor
// l (Equation 4): the largest swing over the last 5 s.
const LumaWindowSec = 5

// Trace is a viewpoint trajectory sampled every RefreshInterval seconds
// starting at t = 0. Yaw values are stored unwrapped (continuous across
// the ±180° seam) so that finite differences and regression are
// well-defined; At normalizes on the way out.
type Trace struct {
	YawDeg   []float64 // unwrapped
	PitchDeg []float64
}

// Len returns the number of samples.
func (tr *Trace) Len() int { return len(tr.YawDeg) }

// Duration returns the trace duration in seconds.
func (tr *Trace) Duration() float64 {
	if tr.Len() == 0 {
		return 0
	}
	return float64(tr.Len()-1) * RefreshInterval
}

// At returns the (normalized) viewpoint at time t, linearly interpolated
// and clamped to the trace's span.
func (tr *Trace) At(t float64) geom.Angle {
	y, p := tr.raw(t)
	return geom.Angle{Yaw: geom.NormYaw(y), Pitch: geom.ClampPitch(p)}
}

// raw returns unwrapped yaw and pitch at time t.
func (tr *Trace) raw(t float64) (yaw, pitch float64) {
	n := tr.Len()
	if n == 0 {
		return 0, 0
	}
	ft := t / RefreshInterval
	i := int(ft)
	if i < 0 {
		return tr.YawDeg[0], tr.PitchDeg[0]
	}
	if i >= n-1 {
		return tr.YawDeg[n-1], tr.PitchDeg[n-1]
	}
	f := ft - float64(i)
	return tr.YawDeg[i] + f*(tr.YawDeg[i+1]-tr.YawDeg[i]),
		tr.PitchDeg[i] + f*(tr.PitchDeg[i+1]-tr.PitchDeg[i])
}

// SpeedAt returns the viewpoint's angular speed in deg/s at time t,
// from a centered finite difference over a 0.3 s window. The window
// averages out per-sample head jitter so the speed reflects pursuit
// motion rather than sensor noise — without it, the conservative
// minimum-speed bound of §6.1 collapses to zero on any real trace.
func (tr *Trace) SpeedAt(t float64) float64 {
	if tr.Len() < 2 {
		return 0
	}
	h := 6 * RefreshInterval
	y0, p0 := tr.raw(t - h/2)
	y1, p1 := tr.raw(t + h/2)
	return math.Hypot(y1-y0, p1-p0) / h
}

// MinSpeedIn returns the minimum speed observed in [t0, t1], sampled at
// the refresh interval. It is the paper's conservative speed estimator:
// "the lowest speed in the last two seconds serves as a reliable
// conservative estimator of the speed in the next few seconds" (§6.1).
func (tr *Trace) MinSpeedIn(t0, t1 float64) float64 {
	if t1 < t0 {
		t0, t1 = t1, t0
	}
	minV := math.Inf(1)
	for t := t0; t <= t1+1e-9; t += RefreshInterval {
		if v := tr.SpeedAt(t); v < minV {
			minV = v
		}
	}
	if math.IsInf(minV, 1) {
		return 0
	}
	return minV
}

// MaxLumaChange returns the largest luminance swing seen by the
// viewpoint over the window [t-window, t], sampled every step seconds,
// given a luminance lookup for the viewpoint's position — the l factor
// of the 360JND model.
func (tr *Trace) MaxLumaChange(t, window, step float64, lumaAt func(geom.Angle, float64) float64) float64 {
	ref := lumaAt(tr.At(t), t)
	var maxDiff float64
	for u := math.Max(0, t-window); u <= t+1e-9; u += step {
		d := math.Abs(lumaAt(tr.At(u), u) - ref)
		if d > maxDiff {
			maxDiff = d
		}
	}
	return maxDiff
}

// AddNoise returns a copy of the trace with every sample shifted by a
// uniform random distance in [0, n] degrees in a random direction — the
// §8.3 stress test for viewpoint prediction errors.
func (tr *Trace) AddNoise(n float64, rng *mathx.RNG) *Trace {
	out := &Trace{
		YawDeg:   make([]float64, tr.Len()),
		PitchDeg: make([]float64, tr.Len()),
	}
	for i := range tr.YawDeg {
		dist := rng.Range(0, n)
		dir := rng.Range(0, 2*math.Pi)
		out.YawDeg[i] = tr.YawDeg[i] + dist*math.Cos(dir)
		out.PitchDeg[i] = geom.ClampPitch(tr.PitchDeg[i] + dist*math.Sin(dir))
	}
	return out
}

// Predictor extrapolates the viewpoint by linear regression over recent
// history, the method shared by Pano and the baselines (§7, [52, 53]).
type Predictor struct {
	// HistoryWindow is how much history feeds the regression, seconds.
	HistoryWindow float64
}

// NewPredictor returns a predictor with the paper's 1 s history window.
func NewPredictor() *Predictor { return &Predictor{HistoryWindow: 1.0} }

// predictStackSamples is the history Predict fits without allocating
// (a 1.55 s window).
const predictStackSamples = 32

// Predict returns the predicted viewpoint at now+horizon, fitting
// separate lines to unwrapped yaw and pitch over the history window.
func (p *Predictor) Predict(tr *Trace, now, horizon float64) geom.Angle {
	t0 := math.Max(0, now-p.HistoryWindow)
	// The default one-second window is 21 samples: fit over stack
	// buffers, and let append move a longer window to the heap.
	var buf [3][predictStackSamples]float64
	ts, ys, ps := buf[0][:0], buf[1][:0], buf[2][:0]
	for t := t0; t <= now+1e-9; t += RefreshInterval {
		y, pi := tr.raw(t)
		ts = append(ts, t)
		ys = append(ys, y)
		ps = append(ps, pi)
	}
	if len(ts) < 2 {
		return tr.At(now)
	}
	ly, err1 := mathx.FitLinear(ts, ys)
	lp, err2 := mathx.FitLinear(ts, ps)
	if err1 != nil || err2 != nil {
		return tr.At(now)
	}
	tt := now + horizon
	return geom.Angle{
		Yaw:   geom.NormYaw(ly.Eval(tt)),
		Pitch: geom.ClampPitch(lp.Eval(tt)),
	}
}

// PredictError returns the great-circle error in degrees between the
// prediction made at now for now+horizon and the truth.
func (p *Predictor) PredictError(tr *Trace, now, horizon float64) float64 {
	return geom.GreatCircleDeg(p.Predict(tr, now, horizon), tr.At(now+horizon))
}

// SynthesizeOpts carries no settings: synthesis runs at the §8.5
// constants below. It stays Synthesize's parameter because the benchmark
// harness passes DefaultSynthesizeOpts().
type SynthesizeOpts struct{}

// DefaultSynthesizeOpts returns the §8.5 settings.
func DefaultSynthesizeOpts() SynthesizeOpts { return SynthesizeOpts{} }

// The §8.5 synthesis settings.
const (
	// trackFraction is the fraction of time spent tracking an object
	// (the paper uses 0.7, matching real traces).
	trackFraction = 0.7
	// headNoiseDeg is the std-dev of per-sample head jitter in degrees.
	headNoiseDeg = 0.3
	// switchMeanSec is the mean dwell before re-picking a target.
	switchMeanSec = 5.0
)

// Synthesize generates a viewpoint trace for a video: alternating
// object-tracking and free-look phases with smooth saccade transitions.
func Synthesize(v *scene.Video, seed uint64, _ SynthesizeOpts) *Trace {
	return synthesize(v, seed, trackFraction)
}

func synthesize(v *scene.Video, seed uint64, trackFraction float64) *Trace {
	rng := mathx.NewRNG(seed*0x9e3779b9 + 1)
	n := int(float64(v.DurationSec)/RefreshInterval) + 1
	tr := &Trace{YawDeg: make([]float64, n), PitchDeg: make([]float64, n)}

	type target struct {
		obj   int // -1 = free look
		fixed geom.Angle
	}
	pick := func() target {
		if len(v.Objects) > 0 && rng.Float64() < trackFraction {
			return target{obj: rng.Intn(len(v.Objects))}
		}
		return target{obj: -1, fixed: geom.Angle{
			Yaw:   rng.Range(-180, 180),
			Pitch: rng.Range(-40, 40),
		}}
	}
	cur := pick()
	nextSwitch := rng.Range(0.5, 2*switchMeanSec)

	// The head lags its target with a first-order filter, which yields
	// the smooth-pursuit speeds seen in real traces.
	const lag = 0.4 // seconds to close ~63% of the gap
	yaw, pitch := 0.0, 0.0
	if cur.obj >= 0 {
		p := v.Objects[cur.obj].PositionAt(0)
		yaw, pitch = p.Yaw, p.Pitch
	} else {
		yaw, pitch = cur.fixed.Yaw, cur.fixed.Pitch
	}
	for i := 0; i < n; i++ {
		t := float64(i) * RefreshInterval
		if t >= nextSwitch {
			cur = pick()
			nextSwitch = t + rng.Range(0.5, 2*switchMeanSec)
		}
		var goal geom.Angle
		if cur.obj >= 0 {
			goal = v.Objects[cur.obj].PositionAt(t)
		} else {
			goal = cur.fixed
		}
		// Move toward the goal along the short arc, in unwrapped space.
		dy := geom.YawDelta(geom.NormYaw(yaw), goal.Yaw)
		dp := goal.Pitch - pitch
		alpha := RefreshInterval / lag
		if alpha > 1 {
			alpha = 1
		}
		yaw += dy*alpha + rng.NormMS(0, headNoiseDeg)
		pitch = geom.ClampPitch(pitch + dp*alpha + rng.NormMS(0, headNoiseDeg))
		tr.YawDeg[i] = yaw
		tr.PitchDeg[i] = pitch
	}
	return tr
}

// WriteCSV serializes the trace as "t,yaw,pitch" rows (normalized yaw).
func (tr *Trace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "t,yaw,pitch"); err != nil {
		return err
	}
	for i := range tr.YawDeg {
		t := float64(i) * RefreshInterval
		if _, err := fmt.Fprintf(bw, "%.3f,%.4f,%.4f\n", t, geom.NormYaw(tr.YawDeg[i]), tr.PitchDeg[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseCSV reads a trace written by WriteCSV (or any t,yaw,pitch CSV at
// the refresh interval), re-unwrapping yaw across the seam.
func ParseCSV(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	tr := &Trace{}
	line := 0
	var prevYaw float64
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "t,") || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) < 3 {
			return nil, fmt.Errorf("viewport: line %d: want 3 fields, got %d", line, len(parts))
		}
		yaw, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("viewport: line %d: bad yaw: %v", line, err)
		}
		pitch, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
		if err != nil {
			return nil, fmt.Errorf("viewport: line %d: bad pitch: %v", line, err)
		}
		if tr.Len() > 0 {
			// Unwrap: choose the representation nearest the previous one.
			yaw = prevYaw + geom.YawDelta(geom.NormYaw(prevYaw), yaw)
		}
		prevYaw = yaw
		tr.YawDeg = append(tr.YawDeg, yaw)
		tr.PitchDeg = append(tr.PitchDeg, pitch)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if tr.Len() == 0 {
		return nil, fmt.Errorf("viewport: empty trace")
	}
	return tr, nil
}
