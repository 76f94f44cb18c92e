// Package experiments reproduces every table and figure of the paper's
// evaluation (§2.3, §4–§8). Each experiment is a function from a shared
// Dataset to a typed result plus a printable Table; cmd/pano-bench and
// bench_test.go are thin wrappers over these functions. DESIGN.md §3
// maps experiment ids to paper artifacts.
package experiments

import (
	"fmt"
	"strings"
	"sync"

	"pano/internal/manifest"
	"pano/internal/mathx"
	"pano/internal/provider"
	"pano/internal/scene"
	"pano/internal/viewport"
)

// Scale sizes the dataset. The paper's numbers (Table 2: 50 videos at
// 2880×1440@30, 18 of them with 48 user traces, 20 study participants)
// are CPU-days of preprocessing for a simulator; QuickScale preserves
// every ratio that the result shapes depend on at a tractable size.
type Scale struct {
	W, H, FPS   int
	DurationSec int
	// TracedVideos have synthesized user traces (paper: 18).
	TracedVideos int
	// TotalVideos is the full corpus size (paper: 50).
	TotalVideos int
	// Users is the number of viewpoint traces per traced video
	// (paper: 48).
	Users int
	// PanelSize is the number of study participants (paper: 20).
	PanelSize int
	// Seed drives all generation.
	Seed uint64
}

// QuickScale is the default: small enough for the test suite, large
// enough that every result shape holds.
func QuickScale() Scale {
	return Scale{
		W: 240, H: 120, FPS: 10, DurationSec: 8,
		TracedVideos: 4, TotalVideos: 8, Users: 4, PanelSize: 20,
		Seed: 2019,
	}
}

// PaperScale approaches the paper's Table 2 (still below the original
// pixel count; see DESIGN.md's substitution table).
func PaperScale() Scale {
	return Scale{
		W: 480, H: 240, FPS: 30, DurationSec: 30,
		TracedVideos: 18, TotalVideos: 50, Users: 48, PanelSize: 20,
		Seed: 2019,
	}
}

// genreMix mirrors Table 2: Sports 22%, Performance 20%, Documentary
// 14%, other 44% split across the remaining genres.
func genreMix(n int, rng *mathx.RNG) []scene.Genre {
	out := make([]scene.Genre, 0, n)
	counted := []struct {
		g scene.Genre
		c int
	}{
		{scene.Sports, (n*22 + 50) / 100},
		{scene.Performance, (n*20 + 50) / 100},
		{scene.Documentary, (n*14 + 50) / 100},
	}
	others := []scene.Genre{scene.Tourism, scene.Adventure, scene.Science, scene.Gaming}
	for _, gc := range counted {
		for i := 0; i < gc.c; i++ {
			out = append(out, gc.g)
		}
	}
	for len(out) < n {
		out = append(out, others[len(out)%len(others)])
	}
	out = out[:n]
	// Shuffle deterministically so traced videos span genres.
	for i := len(out) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

type manifestKey struct {
	video int
	mode  provider.Mode
}

// Dataset lazily builds and caches videos, traces, and manifests.
type Dataset struct {
	Scale  Scale
	videos []*scene.Video

	mu        sync.Mutex
	traces    map[int][]*viewport.Trace
	manifests map[manifestKey]*manifest.Video
}

// NewDataset creates the corpus (videos only; traces and manifests are
// built on demand and cached).
func NewDataset(s Scale) *Dataset {
	rng := mathx.NewRNG(s.Seed)
	genres := genreMix(s.TotalVideos, rng)
	d := &Dataset{
		Scale:     s,
		traces:    make(map[int][]*viewport.Trace),
		manifests: make(map[manifestKey]*manifest.Video),
	}
	opts := scene.Options{W: s.W, H: s.H, FPS: s.FPS, DurationSec: s.DurationSec}
	for i, g := range genres {
		d.videos = append(d.videos, scene.Generate(g, s.Seed+uint64(i)*131, opts))
	}
	return d
}

// Videos returns the full corpus.
func (d *Dataset) Videos() []*scene.Video { return d.videos }

// Video returns one video by index.
func (d *Dataset) Video(i int) *scene.Video { return d.videos[i] }

// TracedIndices returns the indices of videos that have user traces.
func (d *Dataset) TracedIndices() []int {
	out := make([]int, 0, d.Scale.TracedVideos)
	for i := 0; i < d.Scale.TracedVideos && i < len(d.videos); i++ {
		out = append(out, i)
	}
	return out
}

// Traces returns (building if needed) the user traces for video i. For
// videos beyond the traced set, traces are synthesized the same way —
// matching §8.5, where the 32 extra videos get synthetic trajectories.
func (d *Dataset) Traces(i int) []*viewport.Trace {
	d.mu.Lock()
	defer d.mu.Unlock()
	if trs, ok := d.traces[i]; ok {
		return trs
	}
	trs := make([]*viewport.Trace, d.Scale.Users)
	for u := range trs {
		trs[u] = viewport.Synthesize(d.videos[i], d.Scale.Seed+uint64(i)*977+uint64(u)*13,
			viewport.DefaultSynthesizeOpts())
	}
	d.traces[i] = trs
	return trs
}

// Manifest returns (building if needed) the manifest of video i under
// the given tiling mode, using the video's own traces as history.
func (d *Dataset) Manifest(i int, mode provider.Mode) (*manifest.Video, error) {
	d.mu.Lock()
	if m, ok := d.manifests[manifestKey{i, mode}]; ok {
		d.mu.Unlock()
		return m, nil
	}
	d.mu.Unlock()

	// History: a subset of the video's traces (avoid holding the lock
	// through preprocessing).
	trs := d.Traces(i)
	if len(trs) > 4 {
		trs = trs[:4]
	}
	cfg := provider.DefaultConfig()
	cfg.Mode = mode
	m, err := provider.Preprocess(d.videos[i], trs, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: video %d mode %v: %w", i, mode, err)
	}
	d.mu.Lock()
	d.manifests[manifestKey{i, mode}] = m
	d.mu.Unlock()
	return m, nil
}

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// Perfetto, when set, is the run's validated Chrome trace-event
	// export. Experiments never write files themselves; cmd/pano-bench
	// saves it as <id>.perfetto.json next to the BENCH_<id>.json.
	Perfetto []byte
}

// String renders an aligned text table.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
