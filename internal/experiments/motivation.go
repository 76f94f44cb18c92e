package experiments

import (
	"fmt"
	"math"

	"pano/internal/codec"
	"pano/internal/geom"
	"pano/internal/mathx"
	"pano/internal/scene"
	"pano/internal/tiling"
	"pano/internal/viewport"
)

// Fig3Result holds the three factor distributions of Figure 3 and the
// §2.3 threshold-exceedance fractions.
type Fig3Result struct {
	Speed      *mathx.CDF // deg/s
	LumaChange *mathx.CDF // grey levels over 5 s windows
	DoFDiff    *mathx.CDF // dioptre, max diff within a viewport

	// Fraction of time each factor exceeds its 1.5x-JND threshold
	// (10 deg/s, 200 grey, 0.7 dioptre).
	SpeedExceed, LumaExceed, DoFExceed float64
}

// Fig3 reproduces Figure 3: the distributions of viewpoint-moving
// speed, 5-second luminance change, and within-viewport DoF difference
// across all traced videos and users.
func Fig3(d *Dataset) (*Fig3Result, *Table, error) {
	var speeds, lumas, dofs []float64
	for _, vi := range d.TracedIndices() {
		v := d.Video(vi)
		for _, tr := range d.Traces(vi) {
			end := tr.Duration()
			for ts := 0.5; ts < end; ts += 0.25 {
				speeds = append(speeds, tr.SpeedAt(ts))
				lumas = append(lumas, tr.MaxLumaChange(ts, viewport.LumaWindowSec, viewport.RefreshInterval, v.LumaAt))
				dofs = append(dofs, viewportDoFSpread(v, tr.At(ts), ts))
			}
		}
	}
	res := &Fig3Result{
		Speed:      mathx.NewCDF(speeds),
		LumaChange: mathx.NewCDF(lumas),
		DoFDiff:    mathx.NewCDF(dofs),
	}
	res.SpeedExceed = 1 - res.Speed.At(10)
	res.LumaExceed = 1 - res.LumaChange.At(200)
	res.DoFExceed = 1 - res.DoFDiff.At(0.7)

	t := &Table{
		Title:  "Figure 3: factor distributions (quantiles) and threshold exceedance",
		Header: []string{"quantile", "speed_deg_s", "luma_change", "dof_diff"},
	}
	for _, q := range []float64{0.25, 0.5, 0.75, 0.9, 0.99} {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("p%.0f", q*100),
			f1(res.Speed.Quantile(q)), f1(res.LumaChange.Quantile(q)), f2(res.DoFDiff.Quantile(q)),
		})
	}
	t.Rows = append(t.Rows, []string{"exceed_threshold",
		fmt.Sprintf("%.0f%%>10", res.SpeedExceed*100),
		fmt.Sprintf("%.0f%%>200", res.LumaExceed*100),
		fmt.Sprintf("%.0f%%>0.7", res.DoFExceed*100),
	})
	return res, t, nil
}

// viewportDoFSpread returns the max-min depth within the viewport at
// center — the "DoF diff between objects in viewport" of Figure 3.
func viewportDoFSpread(v *scene.Video, center geom.Angle, t float64) float64 {
	vp := geom.DefaultViewport(center)
	minD, maxD := math.Inf(1), math.Inf(-1)
	const grid = 6
	for gy := 0; gy < grid; gy++ {
		for gx := 0; gx < grid; gx++ {
			a := geom.Angle{
				Yaw:   center.Yaw + vp.WidthDeg*(float64(gx)/(grid-1)-0.5),
				Pitch: center.Pitch + vp.HeightDeg*(float64(gy)/(grid-1)-0.5),
			}.Norm()
			dep := v.DepthAt(a, t)
			if dep < minD {
				minD = dep
			}
			if dep > maxD {
				maxD = dep
			}
		}
	}
	return maxD - minD
}

// Fig4Row is one bar of Figure 4.
type Fig4Row struct {
	Grid      tiling.Grid
	MeanRatio float64 // total tile size / unsplit encoding size
	StdRatio  float64
}

// Fig4 reproduces Figure 4: the encoded-size inflation of uniform
// tiling granularities relative to the unsplit video, averaged across
// the corpus.
func Fig4(d *Dataset) ([]Fig4Row, *Table, error) {
	enc := codec.NewEncoder()
	grids := []tiling.Grid{tiling.Grid3x6, tiling.Grid6x12, tiling.Grid12x24}
	stats := make([]mathx.Stats, len(grids))
	n := len(d.Videos())
	if n > 6 {
		n = 6
	}
	for vi := 0; vi < n; vi++ {
		v := d.Video(vi)
		f := v.RenderFrame(v.FPS / 2)
		whole := enc.HeaderBits + enc.FrameRegionBits(f, geom.Rect{X1: f.W, Y1: f.H}, 32)
		for gi, g := range grids {
			var total float64
			for _, r := range g.Rects(f.W, f.H) {
				total += enc.HeaderBits + enc.FrameRegionBits(f, r, 32)
			}
			stats[gi].Add(total / whole)
		}
	}
	var rows []Fig4Row
	t := &Table{
		Title:  "Figure 4: total tile size / original video size",
		Header: []string{"grid", "mean_ratio", "std"},
	}
	for gi, g := range grids {
		r := Fig4Row{Grid: g, MeanRatio: stats[gi].Mean(), StdRatio: stats[gi].Std()}
		rows = append(rows, r)
		t.Rows = append(t.Rows, []string{g.String(), f2(r.MeanRatio), f2(r.StdRatio)})
	}
	return rows, t, nil
}

// Table2 reproduces the dataset summary.
func Table2(d *Dataset) *Table {
	genreCount := map[scene.Genre]int{}
	for _, v := range d.Videos() {
		genreCount[v.Genre]++
	}
	t := &Table{
		Title:  "Table 2: dataset summary",
		Header: []string{"property", "value"},
	}
	t.Rows = append(t.Rows,
		[]string{"total videos", fmt.Sprintf("%d (%d with viewpoint traces of %d users)",
			d.Scale.TotalVideos, d.Scale.TracedVideos, d.Scale.Users)},
		[]string{"total length (s)", fmt.Sprintf("%d", d.Scale.TotalVideos*d.Scale.DurationSec)},
		[]string{"resolution", fmt.Sprintf("%d x %d", d.Scale.W, d.Scale.H)},
		[]string{"frame rate", fmt.Sprintf("%d", d.Scale.FPS)},
	)
	for _, g := range scene.AllGenres() {
		if c := genreCount[g]; c > 0 {
			t.Rows = append(t.Rows, []string{"genre " + g.String(),
				fmt.Sprintf("%d (%.0f%%)", c, 100*float64(c)/float64(len(d.Videos())))})
		}
	}
	return t
}

// Table3 renders the PSPNR→MOS band map.
func Table3() *Table {
	return &Table{
		Title:  "Table 3: map between MOS and 360JND-based PSPNR",
		Header: []string{"PSPNR", "<=45", "46-53", "54-61", "62-69", ">=70"},
		Rows:   [][]string{{"MOS", "1", "2", "3", "4", "5"}},
	}
}
