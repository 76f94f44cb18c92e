// Nightcity: the Figure 2(b) scenario — luminance changes mask
// distortion.
//
// In urban night scenes, the viewpoint swings between bright signage
// and dark streets. For ~5 seconds after such a swing, the eye is far
// less sensitive to quality distortion (luminance adaptation), so Pano
// can quietly drop quality levels without the user noticing. This
// example measures the luminance swings a real trajectory experiences,
// shows how the 360JND luminance multiplier scales the tolerable
// distortion, and quantifies the resulting bandwidth difference.
//
// Run with: go run ./examples/nightcity
package main

import (
	"fmt"
	"log"

	"pano"
)

func main() {
	opts := pano.VideoOptions{W: 240, H: 120, FPS: 10, DurationSec: 10}
	// Performance scenes carry the strongest lighting dynamics (stage
	// lighting / night-city flicker profile).
	video := pano.GenerateVideo(pano.Performance, 5, opts)
	viewer := pano.SynthesizeTrace(video, 21)

	// 1. What luminance swings does this user experience?
	prof := pano.DefaultJND()
	fmt.Println("t(s)  5s-luma-swing  Fl(swing)  tolerable distortion vs static")
	var maxSwing float64
	for ts := 1.0; ts < 9.5; ts += 2 {
		swing := viewer.MaxLumaChange(ts, 5, 0.05, video.LumaAt) // 5 s back, every trace sample
		if swing > maxSwing {
			maxSwing = swing
		}
		fl := prof.Fl(swing)
		fmt.Printf("%4.1f  %13.0f  %9.2f  +%.0f%%\n", ts, swing, fl, (fl-1)*100)
	}
	fmt.Printf("max swing observed: %.0f grey levels\n\n", maxSwing)

	// 2. End-to-end effect: with the same perceived quality target, the
	// luminance-aware planner needs less bandwidth.
	history := []*pano.ViewTrace{pano.SynthesizeTrace(video, 1)}
	m, err := pano.Preprocess(video, history, pano.DefaultPreprocess())
	if err != nil {
		log.Fatal(err)
	}
	link := pano.ScaledLink(m, 0.45, 9)
	for _, planner := range []pano.Planner{pano.NewPanoPlanner(), pano.NewViewportPlanner()} {
		res, err := pano.Simulate(m, viewer, link, planner, pano.DefaultSimConfig())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s PSPNR %.1f dB (MOS %d) at %.3f Mbps, buffering %.2f%%\n",
			planner.Name()+":", res.MeanPSPNR, res.MOS(), res.BandwidthMbps, res.BufferingRatio)
	}
}
