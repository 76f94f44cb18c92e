package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"syscall"

	"pano"
	"pano/internal/live"
	"pano/internal/manifest"
	"pano/internal/obs"
	"pano/internal/scene"
	"pano/internal/store"
	"pano/internal/viewport"
)

// size fixes how much work one pass of each workload does. fullSize is
// what every reported number uses; tinySize exists for the self-test,
// which checks the shape of the output, not its values.
type size struct {
	videoSec      int       // bench video length = chunks (1 s chunks)
	viewers       int       // viewer traces synthesized; the first half is the provider's history
	linkFracs     []float64 // vod_session: link mean as a share of the top bitrate
	swarmSessions int
	hotSweeps     int // serve_hot: sweeps of the tile list per pass
	coldSweeps    int
	minPasses     int
	setups        int // set-up is repeated this often; setup_s is the median
	probeCalls    int // traced run: calls per layer probe
}

var fullSize = size{
	videoSec: 8, viewers: 8, linkFracs: []float64{0.18, 0.30},
	swarmSessions: 5_000, hotSweeps: 10, coldSweeps: 3,
	minPasses: 5, setups: 5, probeCalls: 200,
}

var tinySize = size{
	videoSec: 2, viewers: 2, linkFracs: []float64{0.30},
	swarmSessions: 60, hotSweeps: 2, coldSweeps: 1,
	minPasses: 2, setups: 1, probeCalls: 2,
}

// contentSeed fixes the bench content: the video's pixels, the pool of
// viewer traces and the pools of link traces. It is a constant, not
// -seed. A workload pass is small — 16 sessions, 8 chunks — so a
// re-drawn video, viewer pool or link pool moves plan time, PSPNR and
// stall time by more than the bounds (measured over ten seeds: ops/s
// ±13 %, PSPNR 46.6–50.2 dB, rebuffer 0.6–9.6 %), and every metric would
// measure the draw. -seed drives the draws the workloads make over that
// content: which viewer meets which link and in what order, the swarm's
// arrivals, picks and fault draws, the order of the tile requests.
const contentSeed = 2019

// benchVideo is the input every workload starts from.
type benchVideo struct {
	video   *scene.Video
	viewers []*viewport.Trace
	history []*viewport.Trace // what the provider tiles with: the first half of the viewers
}

func newBenchVideo(sz size) *benchVideo {
	v := scene.Generate(scene.Sports, contentSeed, scene.Options{W: 480, H: 240, FPS: 30, DurationSec: sz.videoSec})
	b := &benchVideo{video: v}
	for u := 0; u < sz.viewers; u++ {
		b.viewers = append(b.viewers, viewport.Synthesize(v, contentSeed+uint64(u), viewport.DefaultSynthesizeOpts()))
	}
	b.history = b.viewers[:(sz.viewers+1)/2]
	return b
}

// preprocess is the VOD provider path with the default (Pano) config.
func (b *benchVideo) preprocess() (*manifest.Video, error) {
	return pano.Preprocess(b.video, b.history, pano.DefaultPreprocess())
}

// publish runs the live pipeline back to back (no capture pacing, no
// deadline) into a fresh store under dir: the only publisher the repo
// has, and the write side the serve workloads read back. reg, when set,
// receives the store's counters.
func (b *benchVideo) publish(dir string, reg *obs.Registry) (*store.Store, *live.Report, error) {
	st, err := store.Open(dir, store.WithObs(reg))
	if err != nil {
		return nil, nil, err
	}
	p, err := live.New(live.Config{
		Video: b.video, History: b.history, Store: st,
		CaptureInterval: 1, // 1 ns: capture never paces the feed
	})
	if err != nil {
		return nil, nil, err
	}
	rep, err := p.Run(context.Background())
	return st, rep, err
}

// pickTmpRoot chooses where store directories live. The sandbox disk
// made store.Put swing 27→350 µs between identical runs (a whole feed
// 0.7→1.4 s); on tmpfs it holds. So /dev/shm is used when it can be
// written, and a directory inside the working tree otherwise.
func pickTmpRoot(flagValue string) (string, error) {
	if flagValue != "" {
		return flagValue, os.MkdirAll(flagValue, 0o755)
	}
	if d, err := os.MkdirTemp("/dev/shm", "pano-bench-probe-"); err == nil {
		os.Remove(d)
		return "/dev/shm", nil
	}
	local := filepath.Join(".bench_build", "tmp")
	return local, os.MkdirAll(local, 0o755)
}

// fsName names the filesystem under path for the run header.
func fsName(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
