package abr_test

import (
	"testing"

	"pano"
	"pano/internal/abr"
	"pano/internal/manifest"
	"pano/internal/player"
)

// searchCall is one planner call that the search answered by sweeping.
type searchCall struct {
	rows   []abr.TileChoice
	budget float64
}

// vodPlanner is the Pano planner recording the calls it swept and the
// frontier states they kept. With t set it holds every search to the
// reference: no tile step thinned, the plan's cost the optimum's.
type vodPlanner struct {
	*player.PanoPlanner
	t             *testing.T
	calls, states int
	searched      []searchCall
}

func (c *vodPlanner) Plan(m *manifest.Video, k int, view player.ChunkView, budget float64) abr.Allocation {
	rows := c.CostRows(nil, m, k, view)
	a, st := abr.SearchPruned(rows, budget, 0)
	c.calls++
	if st.States > 0 {
		c.searched = append(c.searched, searchCall{rows, budget})
		c.states += st.States
	}
	if c.t == nil {
		return a
	}
	if st.Thinned != 0 {
		c.t.Errorf("chunk %d budget %v: %d tile steps thinned at the default cap", k, budget, st.Thinned)
	}
	if got, want := abr.TotalCost(rows, a), abr.ReferenceCost(rows, budget); got != want {
		c.t.Errorf("chunk %d budget %v: cost %v, the uncapped reference %v", k, budget, got, want)
	}
	return a
}

// vodSessions plays one vod_session pass through pl — the benchmark's
// Sports video, its 8 viewers, each over a 0.18× and a 0.30× link — and
// returns the number of chunks the pass plans.
func vodSessions(tb testing.TB, pl *vodPlanner) int {
	const contentSeed, viewers = 2019, 8
	v := pano.GenerateVideo(pano.Sports, contentSeed, pano.VideoOptions{W: 480, H: 240, FPS: 30, DurationSec: 8})
	var traces []*pano.ViewTrace
	for u := 0; u < viewers; u++ {
		traces = append(traces, pano.SynthesizeTrace(v, contentSeed+uint64(u)))
	}
	m, err := pano.Preprocess(v, traces[:viewers/2], pano.DefaultPreprocess())
	if err != nil {
		tb.Fatal(err)
	}
	links := []float64{0.18, 0.30}
	for _, frac := range links {
		for u, tr := range traces {
			if _, err := pano.Simulate(m, tr, pano.ScaledLink(m, frac, contentSeed+uint64(u)), pl, pano.DefaultSimConfig()); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return len(links) * viewers * m.NumChunks()
}

// One vod_session pass replayed through vodPlanner. These rows are
// heavy-tailed (one tile's upgrade can be a fifth of the budget), which is
// where the tangent alone left frontiers over the cap: before the exact
// bound 3 of these 128 calls thinned, and on the benchmark's own seeds two
// thinned calls returned plans 0.13–0.21 % costlier than the optimum
// (testdata/vod_thinned.json holds them without the video). The work is
// pinned as a count: the frontier states kept per searched call are exact
// and deterministic, 149 since the sweep lowers its incumbent to the plans
// it finds (302 against the rounded LP's alone), held to at most 175. That
// mean moves with which calls search — an exit that answers a cheap call
// without a sweep raises it while the work falls — so the work itself is
// pinned as the pass's total over every plan call: 16 686 states, held to
// at most 19 470 (the per-call bound's margin, 175/150).
func TestVodSessionsSearchedExactly(t *testing.T) {
	pl := &vodPlanner{PanoPlanner: player.NewPanoPlanner(), t: t}
	chunks := vodSessions(t, pl)
	perSearch := float64(pl.states) / float64(len(pl.searched))
	t.Logf("%d calls, %d searched, %.0f frontier states per searched call, %d in the pass",
		pl.calls, len(pl.searched), perSearch, pl.states)
	if pl.calls != chunks || len(pl.searched) < pl.calls*3/4 {
		t.Errorf("%d calls of which %d searched: the sessions did not exercise the search", pl.calls, len(pl.searched))
	}
	if perSearch > 175 {
		t.Errorf("%.0f frontier states per searched call, want at most 175", perSearch)
	}
	if pl.states > 19470 {
		t.Errorf("%d frontier states over the pass, want at most 19 470", pl.states)
	}
}

// BenchmarkVodSessionSearches times SearchPruned over the searched calls
// of the pass TestVodSessionsSearchedExactly replays, one call per op, and
// reports the frontier states they keep per call and over the pass.
func BenchmarkVodSessionSearches(b *testing.B) {
	pl := &vodPlanner{PanoPlanner: player.NewPanoPlanner()}
	vodSessions(b, pl)
	calls := pl.searched
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := &calls[i%len(calls)]
		sinkSearch, _ = abr.SearchPruned(c.rows, c.budget, 0)
	}
	b.ReportMetric(float64(pl.states)/float64(len(calls)), "states/call")
	b.ReportMetric(float64(pl.states), "states/pass")
}

var sinkSearch abr.Allocation
