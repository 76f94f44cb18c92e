package abr_test

import (
	"testing"

	"pano"
	"pano/internal/abr"
	"pano/internal/manifest"
	"pano/internal/player"
)

// checkedPlanner is the Pano planner with every search held to the
// reference: no tile step thinned, the plan's cost the optimum's.
type checkedPlanner struct {
	*player.PanoPlanner
	t                       *testing.T
	calls, searched, states int
}

func (c *checkedPlanner) Plan(m *manifest.Video, k int, view player.ChunkView, budget float64) abr.Allocation {
	rows := c.CostRows(nil, m, k, view)
	a, st := abr.SearchPruned(rows, budget, 0)
	c.calls++
	if st.States > 0 {
		c.searched++
		c.states += st.States
	}
	if st.Thinned != 0 {
		c.t.Errorf("chunk %d budget %v: %d tile steps thinned at the default cap", k, budget, st.Thinned)
	}
	if got, want := abr.TotalCost(rows, a), abr.ReferenceCost(rows, budget); got != want {
		c.t.Errorf("chunk %d budget %v: cost %v, the uncapped reference %v", k, budget, got, want)
	}
	return a
}

// One vod_session pass — the benchmark's Sports video, its 8 viewers, each
// over a 0.18× and a 0.30× link — replayed through checkedPlanner. These
// rows are heavy-tailed (one tile's upgrade can be a fifth of the budget),
// which is where the tangent alone left frontiers over the cap: before the
// exact bound 3 of these 128 calls thinned, and on the benchmark's own
// seeds two thinned calls returned plans 0.13–0.21 % costlier than the
// optimum (testdata/vod_thinned.json holds them without the video). The
// work is pinned as a count: the frontier states kept per searched call
// are exact and deterministic, 302, held to at most 350.
func TestVodSessionsSearchedExactly(t *testing.T) {
	const contentSeed, viewers = 2019, 8
	v := pano.GenerateVideo(pano.Sports, contentSeed, pano.VideoOptions{W: 480, H: 240, FPS: 30, DurationSec: 8})
	var traces []*pano.ViewTrace
	for u := 0; u < viewers; u++ {
		traces = append(traces, pano.SynthesizeTrace(v, contentSeed+uint64(u)))
	}
	m, err := pano.Preprocess(v, traces[:viewers/2], pano.DefaultPreprocess())
	if err != nil {
		t.Fatal(err)
	}
	pl := &checkedPlanner{PanoPlanner: player.NewPanoPlanner(), t: t}
	for _, frac := range []float64{0.18, 0.30} {
		for u, tr := range traces {
			if _, err := pano.Simulate(m, tr, pano.ScaledLink(m, frac, contentSeed+uint64(u)), pl, pano.DefaultSimConfig()); err != nil {
				t.Fatal(err)
			}
		}
	}
	perSearch := float64(pl.states) / float64(pl.searched)
	t.Logf("%d calls, %d searched, %.0f frontier states per searched call", pl.calls, pl.searched, perSearch)
	if pl.calls != 2*viewers*m.NumChunks() || pl.searched < pl.calls*3/4 {
		t.Errorf("%d calls of which %d searched: the sessions did not exercise the search", pl.calls, pl.searched)
	}
	if perSearch > 350 {
		t.Errorf("%.0f frontier states per searched call, want at most 350", perSearch)
	}
}
