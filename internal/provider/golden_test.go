package provider

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"pano/internal/manifest"
	"pano/internal/scene"
	"pano/internal/viewport"
)

const goldenPath = "testdata/manifest_sha256.json"

// jsonDigest is the sha256 of m through encoding/json — what
// (*manifest.Video).Encode wrote when the golden was captured. The
// golden pins the provider's output, not the wire format, so it hashes
// this rendering whatever Encode does now.
func jsonDigest(t *testing.T, m *manifest.Video) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// goldenDigests preprocesses the matrix the golden pins — three genres ×
// the four tiling modes × {four history viewers, none} at the bench
// shape (480×240 @30, 3 s) — and returns the digest of each manifest,
// keyed "genre/mode/history". Each manifest must also come back from
// the wire encoding with the same digest: every float its JSON prints
// at full precision survived bit for bit.
func goldenDigests(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, genre := range []scene.Genre{scene.Sports, scene.Tourism, scene.Gaming} {
		v := scene.Generate(genre, 2019, scene.Options{W: 480, H: 240, FPS: 30, DurationSec: 3})
		var viewers []*viewport.Trace
		for u := 0; u < 4; u++ {
			viewers = append(viewers, viewport.Synthesize(v, 2019+uint64(u), viewport.DefaultSynthesizeOpts()))
		}
		for _, mode := range []Mode{ModePano, ModeUniform, ModeClusTile, ModeWhole} {
			for name, history := range map[string][]*viewport.Trace{"history": viewers, "none": nil} {
				cfg := DefaultConfig()
				cfg.Mode = mode
				m, err := Preprocess(v, history, cfg)
				if err != nil {
					t.Fatalf("%v/%v/%s: %v", genre, mode, name, err)
				}
				key := genre.String() + "/" + mode.String() + "/" + name
				out[key] = jsonDigest(t, m)
				back, err := manifest.Unmarshal(m.Marshal())
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if got := jsonDigest(t, back); got != out[key] {
					t.Errorf("%s: digest %s after a trip over the wire, %s before", key, got, out[key])
				}
			}
		}
	}
	return out
}

// TestManifestGolden pins every published manifest byte for byte: the
// digests were captured before the chunk-analysis kernels were rewritten
// (table-driven quantizer, fused PMSE kernel, separable scene render)
// and any rewrite of them must reproduce the same bits.
//
// Re-pinned twice since, each time for one cause and with no structure
// moving: the provider rounded every float it emits to binary32, the
// wire's precision then; and then to each field group's step, the wire's
// precision now (DESIGN.md §4), which also changed the bytes every
// digest is taken over.
//
// To regenerate after an intended behaviour change, delete the golden
// file and run the test once: it rewrites the file and fails.
func TestManifestGolden(t *testing.T) {
	got := goldenDigests(t)
	raw, err := os.ReadFile(goldenPath)
	if errors.Is(err, os.ErrNotExist) {
		out, merr := json.MarshalIndent(got, "", " ")
		if merr != nil {
			t.Fatal(merr)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing; wrote it from this run — review and commit it", goldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d manifests, golden has %d", len(got), len(want))
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: manifest sha256 %s, golden has %s", name, got[name], w)
		}
	}
}
