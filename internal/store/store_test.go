package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pano/internal/obs"
)

func TestPutGetRoundtrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("hello, tiles")
	digest, err := s.Put(payload)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(payload)
	if want := hex.EncodeToString(sum[:]); digest != want {
		t.Fatalf("digest %q, want %q", digest, want)
	}
	got, err := s.Get(digest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("Get returned %q, want %q", got, payload)
	}
	rc, err := s.Open(digest)
	if err != nil {
		t.Fatal(err)
	}
	rc.Close()
	if !indexed(s, digest) {
		t.Fatal("digest not indexed after Put")
	}
}

func TestPutDedup(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d1, err := s.Put([]byte("same bytes"))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := s.Put([]byte("same bytes"))
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("dedup digests differ: %q vs %q", d1, d2)
	}
	if st := s.Stats(); st.Blobs != 1 {
		t.Fatalf("Stats.Blobs = %d after dedup put, want 1", st.Blobs)
	}
}

func TestGetMissing(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte("never stored"))
	if _, err := s.Get(hex.EncodeToString(sum[:])); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(missing) = %v, want ErrNotFound", err)
	}
	if _, err := s.Get("xx"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(malformed) = %v, want ErrNotFound", err)
	}
}

// TestCrashRecovery simulates a process killed mid-Put: tmp debris and a
// torn blob (a file under its digest name whose bytes do not hash to
// that name) must both disappear on reopen, while intact blobs survive.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	good, err := s.Put([]byte("intact blob"))
	if err != nil {
		t.Fatal(err)
	}

	// Crash artifact 1: a tmp file that never got renamed. Backdated
	// past the grace window — by the time anyone reopens after a crash,
	// the debris is old.
	tmp := filepath.Join(dir, "tmp", "put-999-1")
	if err := os.WriteFile(tmp, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	stale := time.Now().Add(-2 * tmpGrace)
	if err := os.Chtimes(tmp, stale, stale); err != nil {
		t.Fatal(err)
	}
	// A fresh tmp file is a live writer's in-flight Put (a reader origin
	// opening the shared directory mid-feed must not delete it).
	fresh := filepath.Join(dir, "tmp", "put-999-2")
	if err := os.WriteFile(fresh, []byte("in flight"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Crash artifact 2: a torn blob — digest name, wrong content.
	sum := sha256.Sum256([]byte("the full payload"))
	torn := hex.EncodeToString(sum[:])
	tornPath := filepath.Join(dir, "blobs", torn[:2], torn[2:])
	if err := os.MkdirAll(filepath.Dir(tornPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tornPath, []byte("the full pay"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("tmp debris survived reopen")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatal("in-flight tmp file deleted by a concurrent reopen")
	}
	if _, err := os.Stat(tornPath); !os.IsNotExist(err) {
		t.Fatal("torn blob survived reopen")
	}
	if indexed(s2, torn) {
		t.Fatal("torn blob was indexed")
	}
	got, err := s2.Get(good)
	if err != nil || !bytes.Equal(got, []byte("intact blob")) {
		t.Fatalf("intact blob lost on reopen: %v", err)
	}
	if st := s2.Stats(); st.Blobs != 1 {
		t.Fatalf("Stats.Blobs = %d after recovery, want 1", st.Blobs)
	}
}

// payloadInShard returns a payload, one per tag, whose digest falls into
// the given shard (the digest's first two hex digits).
func payloadInShard(shard, tag string) []byte {
	for i := 0; ; i++ {
		payload := []byte(fmt.Sprintf("%s %d", tag, i))
		if sum := sha256.Sum256(payload); hex.EncodeToString(sum[:1]) == shard {
			return payload
		}
	}
}

// TestPutMakesMissingShard: Put renames first and makes the shard
// directory only when the rename finds none, so it must work on a shard
// that does not exist (a fresh store, or one removed from under it) as
// on one that does, and a Put that cannot make its shard must fail and
// leave no tmp file.
func TestPutMakesMissingShard(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Put([]byte("first blob of its shard"))
	if err != nil {
		t.Fatal(err)
	}
	shard := filepath.Join(dir, "blobs", first[:2])
	if err := os.RemoveAll(shard); err != nil {
		t.Fatal(err)
	}
	payload := payloadInShard(first[:2], "removed")
	again, err := s.Put(payload)
	if err != nil {
		t.Fatalf("Put into a removed shard: %v", err)
	}
	if got, err := s.Get(again); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("blob in a re-made shard: %q, %v", got, err)
	}
	if _, err := s.Put(payloadInShard(first[:2], "present")); err != nil {
		t.Fatalf("Put into an existing shard: %v", err)
	}
	// A file where the shard directory should be.
	if err := os.RemoveAll(shard); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(shard, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(payloadInShard(first[:2], "blocked")); err == nil {
		t.Fatal("Put under a shard path held by a file should error")
	}
	if left, _ := os.ReadDir(filepath.Join(dir, "tmp")); len(left) != 0 {
		t.Fatalf("a failed Put left %d tmp files", len(left))
	}
}

func TestRefsProtectFromGC(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pinned, _ := s.Put([]byte("pinned"))
	loose, _ := s.Put([]byte("loose"))
	if err := s.AddRef(pinned); err != nil {
		t.Fatal(err)
	}
	removed, reclaimed := s.GC(0)
	if removed != 1 || reclaimed != int64(len("loose")) {
		t.Fatalf("GC removed %d (%d bytes), want 1 (%d)", removed, reclaimed, len("loose"))
	}
	if !indexed(s, pinned) || indexed(s, loose) {
		t.Fatalf("GC kept wrong blobs: pinned=%v loose=%v", indexed(s, pinned), indexed(s, loose))
	}
	if err := s.Release(pinned); err != nil {
		t.Fatal(err)
	}
	if removed, _ := s.GC(0); removed != 1 {
		t.Fatalf("GC after Release removed %d, want 1", removed)
	}
}

func TestGCRetentionHorizon(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d, _ := s.Put([]byte("recently freed"))
	if removed, _ := s.GC(time.Hour); removed != 0 {
		t.Fatalf("GC inside retention removed %d, want 0", removed)
	}
	if !indexed(s, d) {
		t.Fatal("blob inside retention horizon was collected")
	}
}

func TestConcurrentPuts(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const workers, distinct = 8, 16
	var wg sync.WaitGroup
	errs := make(chan error, workers*distinct)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < distinct; i++ {
				payload := []byte(fmt.Sprintf("payload-%d", i)) // same set from every worker
				d, err := s.Put(payload)
				if err != nil {
					errs <- err
					return
				}
				got, err := s.Get(d)
				if err != nil || !bytes.Equal(got, payload) {
					errs <- fmt.Errorf("readback %d: %v", i, err)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Blobs != distinct {
		t.Fatalf("Stats.Blobs = %d, want %d", st.Blobs, distinct)
	}
}

func TestCatalogRoundtrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadCatalog(); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ReadCatalog(empty store) = %v, want ErrNotFound", err)
	}
	man, tile := strings.Repeat("ab", 32), strings.Repeat("0f", 32)
	cat := &Catalog{
		Seq: 7, Manifest: man, FirstChunk: 2,
		Tiles: map[string]TileRef{"/video/2/0/1.bin": {Digest: tile, Size: 99}},
	}
	if err := s.WriteCatalog(cat); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 7 || got.Manifest != man || got.FirstChunk != 2 {
		t.Fatalf("catalog head mismatch: %+v", got)
	}
	if ref := got.Tiles["/video/2/0/1.bin"]; ref.Digest != tile || ref.Size != 99 {
		t.Fatalf("tile ref mismatch: %+v", ref)
	}
	// Replacement is atomic whole-document: a second write fully wins.
	if err := s.WriteCatalog(&Catalog{Seq: 8, Manifest: tile}); err != nil {
		t.Fatal(err)
	}
	got, err = s.ReadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 8 || len(got.Tiles) != 0 {
		t.Fatalf("replaced catalog = %+v", got)
	}
}

// TestGetSizedMatchesGet: the sized read answers exactly what Get
// answers — same bytes, same error — whether the catalog's size is
// right or the blob on disk is truncated, over-long, empty or gone, and
// either way one successful read is one pano_store_gets_total.
func TestGetSizedMatchesGet(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := Open(t.TempDir(), WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("0123456789abcdef"), 100)
	digest, err := s.Put(payload)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what, digest string, size int) {
		t.Helper()
		before := reg.CounterValue("pano_store_gets_total")
		want, werr := s.Get(digest)
		mid := reg.CounterValue("pano_store_gets_total")
		got, gerr := s.getSized(digest, size)
		after := reg.CounterValue("pano_store_gets_total")
		if !bytes.Equal(got, want) || (gerr == nil) != (werr == nil) ||
			errors.Is(gerr, ErrNotFound) != errors.Is(werr, ErrNotFound) {
			t.Errorf("%s: getSized = %d bytes, %v; Get = %d bytes, %v", what, len(got), gerr, len(want), werr)
		}
		if after-mid != mid-before {
			t.Errorf("%s: getSized counted %v reads, Get %v", what, after-mid, mid-before)
		}
	}
	check("exact size", digest, len(payload))
	check("catalog says shorter", digest, len(payload)-1)
	check("catalog says longer", digest, len(payload)+1)
	check("catalog says empty", digest, 0)
	check("missing blob", hex.EncodeToString(make([]byte, sha256.Size)), 16)
	check("malformed digest", "zz", 16)

	path := s.blobPath(digest)
	if err := os.WriteFile(path, payload[:700], 0o644); err != nil {
		t.Fatal(err)
	}
	check("truncated on disk", digest, len(payload))
	if err := os.WriteFile(path, append(append([]byte(nil), payload...), "tail"...), 0o644); err != nil {
		t.Fatal(err)
	}
	check("over-long on disk", digest, len(payload))
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	check("emptied on disk", digest, len(payload))
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	check("collected", digest, len(payload))
}

// indexed reports whether s's index holds digest.
func indexed(s *Store, digest string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.blobs[digest]
	return ok
}
