package live

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"pano/internal/manifest"
	"pano/internal/provider"
	"pano/internal/scene"
	"pano/internal/store"
	"pano/internal/viewport"
)

// TestPublishedHeadsNeverRegress: for feeds of one, two and five chunks
// (past the video's three, its chunks are published again under new
// indices), with the availability window unbounded, one chunk and three,
// every head the publisher writes — the empty head, then one per chunk — is the
// manifest blob the store's catalog names, decodes, re-encodes to
// exactly those bytes, and has a Seq above the last head's and a
// FirstChunk no lower.
func TestPublishedHeadsNeverRegress(t *testing.T) {
	v := scene.Generate(scene.Sports, 7, scene.Options{W: 240, H: 120, FPS: 10, DurationSec: 3})
	hist := []*viewport.Trace{viewport.Synthesize(v, 8, viewport.DefaultSynthesizeOpts())}
	var chunks []manifest.Chunk
	for k := 0; k < v.DurationSec; k++ {
		ch, err := provider.ChunkAt(v, hist, provider.DefaultConfig(), k)
		if err != nil {
			t.Fatal(err)
		}
		chunks = append(chunks, ch)
	}
	for _, n := range []int{1, 2, 5} {
		for _, window := range []int{0, 1, 3} {
			t.Run(fmt.Sprintf("%d chunks, window %d", n, window), func(t *testing.T) {
				s, err := store.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				p, err := New(Config{Video: v, History: hist, Store: s, WindowChunks: window})
				if err != nil {
					t.Fatal(err)
				}
				var last *manifest.Video
				check := func(what string) {
					t.Helper()
					cat, err := s.ReadCatalog()
					if err != nil {
						t.Fatal(err)
					}
					served, err := s.Get(cat.Manifest)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(served, p.pub.manifestWire()) {
						t.Fatalf("%s: the catalog names another manifest than the head", what)
					}
					m, err := manifest.Unmarshal(served)
					if err != nil {
						t.Fatalf("%s: the head does not decode: %v", what, err)
					}
					if !bytes.Equal(m.Marshal(), served) {
						t.Fatalf("%s: the head re-encodes to other bytes", what)
					}
					if last != nil && (m.Seq <= last.Seq || m.FirstChunk < last.FirstChunk) {
						t.Fatalf("%s: seq %d, first chunk %d after seq %d, first chunk %d", what, m.Seq, m.FirstChunk, last.Seq, last.FirstChunk)
					}
					last = m
				}
				if err := p.pub.publishHead(); err != nil {
					t.Fatal(err)
				}
				check("the empty head")
				for k := 0; k < n; k++ {
					ch := chunks[k%len(chunks)]
					ch.Index = k
					ec := encodedChunk{k: k, chunk: ch, capturedAt: time.Now()}
					if err := p.pub.publish(context.Background(), ec, k == n-1); err != nil {
						t.Fatal(err)
					}
					check(fmt.Sprintf("chunk %d's head", k))
				}
				if last.Live || last.NumChunks() != n {
					t.Fatalf("the last head: live %v, %d chunks, want the whole feed of %d ended", last.Live, last.NumChunks(), n)
				}
			})
		}
	}
}
