package viewport

import (
	"testing"

	"pano/internal/geom"
	"pano/internal/mathx"
	"pano/internal/scene"
)

// crossUserFixture builds a video where everyone tracks the same
// objects, plus traces for a peer pool and a held-out user.
func crossUserFixture() (*scene.Video, []*Trace, *Trace) {
	v := scene.Generate(scene.Sports, 77, scene.Options{W: 120, H: 60, FPS: 10, DurationSec: 20})
	// Tracking objects all the time: strong cross-user consensus.
	var peers []*Trace
	for i := 0; i < 6; i++ {
		peers = append(peers, synthesize(v, uint64(100+i), 1))
	}
	user := synthesize(v, 999, 1)
	return v, peers, user
}

func TestCrossUserBeatsLinearAtLongHorizon(t *testing.T) {
	_, peers, user := crossUserFixture()
	linear := NewPredictor()
	cross := NewCrossUserPredictor(peers)

	var linErr, crossErr mathx.Stats
	for now := 3.0; now < 15; now += 0.5 {
		const horizon = 3.0
		linErr.Add(linear.PredictError(user, now, horizon))
		crossErr.Add(cross.PredictError(user, now, horizon))
	}
	if crossErr.Mean() >= linErr.Mean() {
		t.Errorf("cross-user error %.1f° should beat linear %.1f° at 3 s horizon",
			crossErr.Mean(), linErr.Mean())
	}
}

func TestCrossUserFallsBackWithoutConsensus(t *testing.T) {
	// Peers spread uniformly: no consensus, prediction must equal the
	// linear fallback.
	var peers []*Trace
	for i := 0; i < 5; i++ {
		tr := linearTrace(0, 0, 201)
		for j := range tr.YawDeg {
			tr.YawDeg[j] = float64(i*72) - 144 // -144,-72,0,72,144
		}
		peers = append(peers, tr)
	}
	user := linearTrace(12, 5, 201)
	cross := NewCrossUserPredictor(peers)
	lin := NewPredictor()
	got := cross.Predict(user, 5, 1)
	want := lin.Predict(user, 5, 1)
	if geom.GreatCircleDeg(got, want) > 1e-6 {
		t.Errorf("no-consensus prediction %v, want linear %v", got, want)
	}
}

func TestCrossUserEmptyPeers(t *testing.T) {
	cross := NewCrossUserPredictor(nil)
	user := linearTrace(10, 0, 201)
	got := cross.Predict(user, 5, 1)
	want := NewPredictor().Predict(user, 5, 1)
	if geom.GreatCircleDeg(got, want) > 1e-6 {
		t.Error("empty peer pool should be pure linear")
	}
}

func TestCrossUserConsensusPullsPrediction(t *testing.T) {
	// All peers dwell at yaw 90; the user's own history points at 0
	// moving away. With consensus, the prediction must move toward 90.
	var peers []*Trace
	for i := 0; i < 5; i++ {
		tr := linearTrace(0, 0, 201)
		for j := range tr.YawDeg {
			tr.YawDeg[j] = 90
		}
		peers = append(peers, tr)
	}
	user := linearTrace(0, 0, 201) // static at yaw 0
	cross := NewCrossUserPredictor(peers)
	got := cross.Predict(user, 5, 2)
	if got.Yaw < 20 {
		t.Errorf("prediction yaw %v should be pulled toward the consensus at 90", got.Yaw)
	}
}

func TestCentroidHelpers(t *testing.T) {
	c := geom.Centroid([]geom.Angle{{Yaw: 10, Pitch: 0}, {Yaw: -10, Pitch: 0}})
	if geom.GreatCircleDeg(c, geom.Angle{}) > 0.5 {
		t.Errorf("centroid = %v, want ~origin", c)
	}
	// Round trip through vectors.
	for _, a := range []geom.Angle{{Yaw: 45, Pitch: 30}, {Yaw: -170, Pitch: -60}} {
		back := geom.FromVec(a.Vec())
		if geom.GreatCircleDeg(a, back) > 1e-9 {
			t.Errorf("vec round trip %v -> %v", a, back)
		}
	}
	if got := geom.FromVec([3]float64{}); got != (geom.Angle{}) {
		t.Errorf("zero vector = %v, want origin", got)
	}
}
