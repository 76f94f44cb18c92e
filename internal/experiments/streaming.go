package experiments

import (
	"fmt"

	"pano/internal/mathx"
	"pano/internal/player"
	"pano/internal/provider"
	"pano/internal/scene"
	"pano/internal/sim"
	"pano/internal/userstudy"
	"pano/internal/viewport"
)

// System identifies one of the compared streaming systems (§8.1's
// baselines plus the ablations of Figure 18a).
type System int

// The systems under comparison.
const (
	// SysPano is full Pano: variable tiling + 360JND allocation.
	SysPano System = iota
	// SysFlare is the Flare baseline: uniform 6×12 tiles,
	// viewport-distance quality allocation.
	SysFlare
	// SysClusTile is the ClusTile baseline: size-clustered variable
	// tiles, viewport-distance allocation.
	SysClusTile
	// SysWhole streams the whole panorama at one uniform level.
	SysWhole
	// SysPanoTradJND is the Figure 18a ablation: uniform tiles with a
	// PSPNR allocator using only the traditional content JND.
	SysPanoTradJND
	// SysPano360Uniform is the Figure 18a ablation: uniform tiles with
	// the full 360JND allocator (variable tiling disabled).
	SysPano360Uniform
)

var systemNames = map[System]string{
	SysPano:           "pano",
	SysFlare:          "viewport-driven",
	SysClusTile:       "clustile",
	SysWhole:          "whole-video",
	SysPanoTradJND:    "pano-traditional-pspnr",
	SysPano360Uniform: "pano-360jnd-uniform-tiles",
}

// String implements fmt.Stringer.
func (s System) String() string {
	if n, ok := systemNames[s]; ok {
		return n
	}
	return fmt.Sprintf("System(%d)", int(s))
}

// AllSystems lists the four headline systems of Figures 1 and 15.
func AllSystems() []System {
	return []System{SysPano, SysFlare, SysClusTile, SysWhole}
}

// components returns the manifest mode and planner for a system.
func (s System) components() (provider.Mode, player.Planner) {
	switch s {
	case SysPano:
		return provider.ModePano, player.NewPanoPlanner()
	case SysFlare:
		return provider.ModeUniform, player.NewViewportPlanner("flare")
	case SysClusTile:
		return provider.ModeClusTile, player.NewViewportPlanner("clustile")
	case SysWhole:
		// The whole-video baseline streams the same tiled encoding at
		// one uniform level: no viewport or perception adaptation.
		// (A literal single-tile encoding would hand it an encoding-
		// overhead advantage that vanishes at the paper's resolution;
		// see EXPERIMENTS.md.)
		return provider.ModePano, player.WholePlanner{}
	case SysPanoTradJND:
		p := player.NewPanoPlanner()
		p.Traditional = true
		return provider.ModeUniform, p
	case SysPano360Uniform:
		return provider.ModeUniform, player.NewPanoPlanner()
	}
	return provider.ModePano, player.NewPanoPlanner()
}

// RunSystem simulates one session: video vi watched along trace tr by
// the given system, over a link at linkFrac of the pano-manifest top
// rate (so every system sees the identical link).
func (d *Dataset) RunSystem(vi int, tr *viewport.Trace, s System, linkFrac float64, cfg sim.Config) (*sim.Result, error) {
	mode, planner := s.components()
	m, err := d.Manifest(vi, mode)
	if err != nil {
		return nil, err
	}
	ref, err := d.Manifest(vi, provider.ModePano)
	if err != nil {
		return nil, err
	}
	link := sim.ScaledLink(ref, linkFrac, d.Scale.Seed+uint64(vi))
	// Score every system on the same ground-truth perceptual field.
	cfg.Scene = d.Video(vi)
	return sim.Run(m, tr, link, planner, cfg)
}

// sessionMean aggregates sessions of one system over videos and users.
type sessionMean struct {
	pspnr, buffering, bandwidth mathx.Stats
}

func (d *Dataset) aggregate(videoIdx []int, s System, linkFrac float64, cfg sim.Config, maxUsers int) (sessionMean, error) {
	var agg sessionMean
	for _, vi := range videoIdx {
		trs := d.Traces(vi)
		if maxUsers > 0 && len(trs) > maxUsers {
			trs = trs[:maxUsers]
		}
		for _, tr := range trs {
			res, err := d.RunSystem(vi, tr, s, linkFrac, cfg)
			if err != nil {
				return agg, err
			}
			agg.pspnr.Add(res.MeanPSPNR)
			agg.buffering.Add(res.BufferingRatio)
			agg.bandwidth.Add(res.BandwidthMbps)
		}
	}
	return agg, nil
}

// Fig1Row is one point of Figure 1's PSPNR-vs-buffering scatter.
type Fig1Row struct {
	System         System
	PSPNR          float64
	BufferingRatio float64
}

// Fig1 reproduces Figure 1: user-perceived quality (PSPNR) against
// buffering ratio for Pano, the viewport-driven baseline, and whole
// video, across the traced videos over the emulated cellular link.
func Fig1(d *Dataset) ([]Fig1Row, *Table, error) {
	systems := []System{SysPano, SysFlare, SysWhole}
	var rows []Fig1Row
	t := &Table{
		Title:  "Figure 1: PSPNR vs buffering ratio (traced videos, cellular trace #1)",
		Header: []string{"system", "pspnr_dB", "buffering_%"},
	}
	for _, s := range systems {
		agg, err := d.aggregate(d.TracedIndices(), s, sim.Trace1Frac, sim.DefaultConfig(), 0)
		if err != nil {
			return nil, nil, err
		}
		r := Fig1Row{System: s, PSPNR: agg.pspnr.Mean(), BufferingRatio: agg.buffering.Mean()}
		rows = append(rows, r)
		t.Rows = append(t.Rows, []string{s.String(), f1(r.PSPNR), f2(r.BufferingRatio)})
	}
	return rows, t, nil
}

// Fig15Row is one ellipse center of Figure 15.
type Fig15Row struct {
	Genre           scene.Genre
	TraceID         int // 1 or 2
	System          System
	BufferTargetSec float64
	PSPNR           float64
	PSPNRStd        float64
	BufferingRatio  float64
}

// Fig15 reproduces Figure 15: trace-driven comparison of the four
// systems across genres and the two cellular traces, for buffer
// targets {1,2,3} s.
func Fig15(d *Dataset) ([]Fig15Row, *Table, error) {
	genres := []scene.Genre{scene.Sports, scene.Tourism, scene.Documentary, scene.Performance}
	fracs := map[int]float64{1: sim.Trace1Frac, 2: sim.Trace2Frac}
	var rows []Fig15Row
	t := &Table{
		Title:  "Figure 15: PSPNR vs buffering, 4 genres x 2 traces x 4 systems",
		Header: []string{"genre", "trace", "system", "buf_target_s", "pspnr_dB", "pspnr_std", "buffering_%"},
	}
	maxUsers := 3
	if d.Scale.Users < maxUsers {
		maxUsers = d.Scale.Users
	}
	for _, g := range genres {
		vids := d.videosOfGenre(g, 2)
		if len(vids) == 0 {
			continue
		}
		for traceID, frac := range fracs {
			for _, s := range AllSystems() {
				for _, target := range []float64{1, 2, 3} {
					cfg := sim.DefaultConfig()
					cfg.BufferTargetSec = target
					var pspnr, buf mathx.Stats
					for _, vi := range vids {
						trs := d.Traces(vi)
						if len(trs) > maxUsers {
							trs = trs[:maxUsers]
						}
						for _, tr := range trs {
							res, err := d.RunSystem(vi, tr, s, frac, cfg)
							if err != nil {
								return nil, nil, err
							}
							pspnr.Add(res.MeanPSPNR)
							buf.Add(res.BufferingRatio)
						}
					}
					r := Fig15Row{
						Genre: g, TraceID: traceID, System: s, BufferTargetSec: target,
						PSPNR: pspnr.Mean(), PSPNRStd: pspnr.Std(), BufferingRatio: buf.Mean(),
					}
					rows = append(rows, r)
					t.Rows = append(t.Rows, []string{
						g.String(), fmt.Sprintf("#%d", traceID), s.String(),
						f0(target), f1(r.PSPNR), f1(r.PSPNRStd), f2(r.BufferingRatio),
					})
				}
			}
		}
	}
	return rows, t, nil
}

// videosOfGenre returns up to max corpus indices of the given genre.
func (d *Dataset) videosOfGenre(g scene.Genre, max int) []int {
	var out []int
	for i, v := range d.videos {
		if v.Genre == g {
			out = append(out, i)
			if len(out) == max {
				break
			}
		}
	}
	return out
}

// Fig13Row is one bar of Figure 13.
type Fig13Row struct {
	Genre     scene.Genre
	Bandwidth string // "trace1" (0.71 Mbps-equivalent) or "trace2"
	System    System
	MOS       float64
	MOSStdErr float64
}

// Fig13 reproduces Figure 13: the survey MOS of Pano vs the
// viewport-driven baseline across the seven genres at the two
// bandwidths, rated by the simulated participant panel.
func Fig13(d *Dataset) ([]Fig13Row, *Table, error) {
	panel := userstudy.NewPanel(d.Scale.PanelSize, d.Scale.Seed)
	fracs := map[string]float64{"trace1": sim.Trace1Frac, "trace2": sim.Trace2Frac}
	var rows []Fig13Row
	t := &Table{
		Title:  "Figure 13: MOS by genre, Pano vs viewport-driven, 2 bandwidths",
		Header: []string{"bandwidth", "genre", "system", "MOS", "stderr"},
	}
	for _, bwName := range []string{"trace1", "trace2"} {
		frac := fracs[bwName]
		for _, g := range scene.AllGenres() {
			vids := d.videosOfGenre(g, 2)
			if len(vids) == 0 {
				continue
			}
			for _, s := range []System{SysFlare, SysPano} {
				var ratings mathx.Stats
				for _, vi := range vids {
					trs := d.Traces(vi)
					if len(trs) > 4 {
						trs = trs[:4]
					}
					for _, tr := range trs {
						res, err := d.RunSystem(vi, tr, s, frac, sim.DefaultConfig())
						if err != nil {
							return nil, nil, err
						}
						for _, r := range panel.Ratings(res.MeanPSPNR) {
							ratings.Add(float64(r))
						}
					}
				}
				r := Fig13Row{Genre: g, Bandwidth: bwName, System: s,
					MOS: ratings.Mean(), MOSStdErr: ratings.StdErr()}
				rows = append(rows, r)
				t.Rows = append(t.Rows, []string{bwName, g.String(), s.String(), f2(r.MOS), f2(r.MOSStdErr)})
			}
		}
	}
	return rows, t, nil
}
