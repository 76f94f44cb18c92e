// Package store implements a content-addressed on-disk blob store for
// tile and manifest objects. Every blob is named by the sha256 of its
// bytes, written atomically (tmp file + rename), and never mutated —
// the only mutable state on disk is the small catalog document
// (catalog.go) naming the current publication. That shape is what makes
// origins stateless: N internal/server processes can open the same
// directory read-only and serve byte-identical objects with identical
// ETags, while a single internal/live publisher appends.
//
// Blobs are ref-counted in memory by the publishing process; GC removes
// blobs that have been unreferenced for longer than a retention
// horizon, which protects reading origins that loaded a slightly older
// catalog. On Open the index is rebuilt from disk: leftover tmp files
// (a crash mid-Put) are deleted and every blob's digest is re-verified,
// so a torn write can never become visible.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"pano/internal/obs"
)

// ErrNotFound is returned by Get/Open for a digest the store does not
// hold.
var ErrNotFound = fmt.Errorf("store: blob not found")

// tmpGrace is how old a tmp file must be before Open's recovery treats
// it as crash debris. An in-flight Put lives for milliseconds; anything
// past this window belongs to a process that died mid-write.
const tmpGrace = time.Minute

// Store is one content-addressed blob directory. Safe for concurrent
// use.
type Store struct {
	dir string
	// The three paths under dir, joined once: an origin stats the
	// catalog and opens a blob on every request.
	catalogPath, blobDir, tmpDir string

	reg  *obs.Registry
	log  *obs.EventLog
	gets atomic.Pointer[obs.Counter] // pano_store_gets_total, resolved by the first read

	mu    sync.Mutex
	blobs map[string]*blobState
	bytes int64
	seq   uint64 // tmp-file name counter
}

// blobState is the in-memory index entry for one blob.
type blobState struct {
	size int64
	refs int
	// free is when the blob was last seen unreferenced (file mtime at
	// Open, the moment of the last Release otherwise): GC's retention
	// horizon counts from here.
	free time.Time
}

// Option configures a Store.
type Option func(*Store)

// WithObs attaches pano_store_* metrics (puts, gets, dedup hits, bytes
// and blob gauges, GC counters). nil is the no-op default.
func WithObs(reg *obs.Registry) Option {
	return func(s *Store) { s.reg = reg }
}

// WithEventLog attaches structured events (corrupt-blob drops, GC
// sweeps). nil is the no-op default.
func WithEventLog(l *obs.EventLog) Option {
	return func(s *Store) { s.log = l }
}

// Open opens (creating if needed) the store rooted at dir and rebuilds
// the index from disk. Recovery is part of opening: tmp files from a
// crashed Put are removed, and each blob's content is re-hashed so a
// torn or corrupted file is deleted instead of indexed — the cost is
// one read of the store, paid once per process start.
func Open(dir string, opts ...Option) (*Store, error) {
	s := &Store{
		dir:         dir,
		catalogPath: filepath.Join(dir, catalogName),
		blobDir:     filepath.Join(dir, "blobs"),
		tmpDir:      filepath.Join(dir, "tmp"),
		blobs:       make(map[string]*blobState),
	}
	for _, o := range opts {
		o(s)
	}
	for _, sub := range []string{s.blobDir, s.tmpDir} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	// A crash between tmp write and rename leaves debris here; nothing
	// references a tmp file, so recovery is deletion. Only stale files
	// qualify: a reader origin opening the directory mid-feed must not
	// delete the live publisher's in-flight Put (which writes and
	// renames within milliseconds, far inside the grace window).
	tmps, err := os.ReadDir(s.tmpDir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, e := range tmps {
		if info, err := e.Info(); err == nil && time.Since(info.ModTime()) < tmpGrace {
			continue
		}
		os.Remove(filepath.Join(s.tmpDir, e.Name()))
		s.count("pano_store_recovered_tmp_total", "leftover tmp files removed on open")
	}
	corrupt := 0
	err = filepath.WalkDir(s.blobDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		// Reassemble the digest from the shard directory + file name.
		digest := filepath.Base(filepath.Dir(path)) + d.Name()
		data, rerr := os.ReadFile(path)
		sum := sha256.Sum256(data)
		if rerr != nil || hex.EncodeToString(sum[:]) != digest {
			// Torn blob (e.g. a crash mid-write outside the tmp protocol,
			// or bit rot): drop it rather than serve bad bytes.
			os.Remove(path)
			corrupt++
			s.count("pano_store_corrupt_blobs_total", "blobs failing digest verification on open, deleted")
			s.log.Logger().Warn("store_corrupt_blob", "digest", digest)
			return nil
		}
		info, ierr := d.Info()
		free := time.Now()
		if ierr == nil {
			free = info.ModTime()
		}
		s.blobs[digest] = &blobState{size: int64(len(data)), free: free}
		s.bytes += int64(len(data))
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if corrupt > 0 {
		s.log.Logger().Warn("store_recovery", "corrupt_blobs_dropped", corrupt)
	}
	s.gauges()
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// blobPath shards blobs by the digest's first byte to keep directory
// fan-out bounded.
func (s *Store) blobPath(digest string) string {
	return filepath.Join(s.blobDir, digest[:2], digest[2:])
}

// Put stores payload and returns its sha256 digest (hex). Writing is
// atomic: the bytes land in a tmp file first and are renamed into place,
// so a reader either sees the complete blob or nothing. Storing bytes
// already present is a no-op (dedup).
func (s *Store) Put(payload []byte) (string, error) {
	sum := sha256.Sum256(payload)
	digest := hex.EncodeToString(sum[:])
	s.mu.Lock()
	if _, ok := s.blobs[digest]; ok {
		s.mu.Unlock()
		s.count("pano_store_dedup_total", "puts deduplicated against an existing blob")
		return digest, nil
	}
	s.seq++
	tmp := filepath.Join(s.tmpDir, fmt.Sprintf("put-%d-%d", os.Getpid(), s.seq))
	s.mu.Unlock()

	if err := os.WriteFile(tmp, payload, 0o644); err != nil {
		return "", fmt.Errorf("store: put: %w", err)
	}
	final := s.blobPath(digest)
	// Rename is atomic within the filesystem; a concurrent Put of the
	// same content renames identical bytes over identical bytes. The
	// shard directory is made when the rename misses it, not per Put.
	err := os.Rename(tmp, final)
	if os.IsNotExist(err) {
		if err = os.MkdirAll(filepath.Dir(final), 0o755); err == nil {
			err = os.Rename(tmp, final)
		}
	}
	if err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("store: put: %w", err)
	}
	s.mu.Lock()
	if _, ok := s.blobs[digest]; !ok {
		s.blobs[digest] = &blobState{size: int64(len(payload)), free: time.Now()}
		s.bytes += int64(len(payload))
	}
	s.mu.Unlock()
	s.count("pano_store_puts_total", "blobs written")
	s.reg.Counter("pano_store_put_bytes_total", "payload bytes written").Add(float64(len(payload)))
	s.gauges()
	return digest, nil
}

// Get returns the blob's bytes.
func (s *Store) Get(digest string) ([]byte, error) {
	data, err := os.ReadFile(s.lookupPath(digest))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, digest)
		}
		return nil, fmt.Errorf("store: get: %w", err)
	}
	s.countGet()
	return data, nil
}

// getSized is Get for a caller that knows how long the blob is — the
// catalog records every tile's size — and so needs neither the fstat
// that sizes ReadFile's buffer nor the second read that finds EOF:
// open, one read into size+1 bytes, close. It is only ever a shortcut:
// anything but exactly size bytes coming back — a truncated or
// over-long blob, a short read, a blob that cannot be opened — is
// answered by Get itself, bytes and error, so the two cannot disagree.
func (s *Store) getSized(digest string, size int) ([]byte, error) {
	if f, err := os.Open(s.lookupPath(digest)); err == nil {
		buf := make([]byte, size+1)
		n, err := f.Read(buf)
		f.Close()
		if err == nil && n == size {
			s.countGet()
			return buf[:size], nil
		}
	}
	return s.Get(digest)
}

// Open returns a reader over the blob (large-object path; Get is the
// convenience form).
func (s *Store) Open(digest string) (io.ReadCloser, error) {
	f, err := os.Open(s.lookupPath(digest))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, digest)
		}
		return nil, fmt.Errorf("store: open: %w", err)
	}
	s.countGet()
	return f, nil
}

// lookupPath returns the on-disk path for a digest, or an impossible
// path for malformed digests (so the read fails cleanly).
func (s *Store) lookupPath(digest string) string {
	if len(digest) < 3 {
		return filepath.Join(s.tmpDir, "invalid-digest")
	}
	return s.blobPath(digest)
}

// AddRef pins a blob against GC. Refs are process-local publisher
// state, not persisted: reading origins never take refs, they are
// protected by the GC retention horizon instead.
func (s *Store) AddRef(digest string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blobs[digest]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, digest)
	}
	b.refs++
	return nil
}

// Release drops one reference; at zero the retention clock starts.
func (s *Store) Release(digest string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blobs[digest]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, digest)
	}
	if b.refs > 0 {
		b.refs--
	}
	if b.refs == 0 {
		b.free = time.Now()
	}
	return nil
}

// GC deletes blobs that have been unreferenced for at least retention.
// The horizon exists for the stateless-origin topology: an origin that
// loaded the catalog just before a chunk was retired may still serve
// its tiles; retention must exceed the origins' catalog refresh lag.
func (s *Store) GC(retention time.Duration) (removed int, reclaimed int64) {
	now := time.Now()
	s.mu.Lock()
	var victims []string
	for digest, b := range s.blobs {
		if b.refs == 0 && now.Sub(b.free) >= retention {
			victims = append(victims, digest)
		}
	}
	for _, digest := range victims {
		reclaimed += s.blobs[digest].size
		delete(s.blobs, digest)
	}
	s.bytes -= reclaimed
	s.mu.Unlock()
	for _, digest := range victims {
		os.Remove(s.blobPath(digest))
	}
	removed = len(victims)
	s.count("pano_store_gc_runs_total", "GC sweeps")
	if removed > 0 {
		s.reg.Counter("pano_store_gc_removed_total", "blobs deleted by GC").Add(float64(removed))
		s.reg.Counter("pano_store_gc_reclaimed_bytes_total", "bytes reclaimed by GC").Add(float64(reclaimed))
		s.log.Logger().Debug("store_gc", "removed", removed, "reclaimed_bytes", reclaimed)
	}
	s.gauges()
	return removed, reclaimed
}

// Stats summarizes the store.
type Stats struct {
	Blobs int
	Bytes int64
}

// Stats returns current blob and byte totals.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Blobs: len(s.blobs), Bytes: s.bytes}
}

func (s *Store) count(name, help string) {
	s.reg.Counter(name, help).Inc()
}

func (s *Store) countGet() {
	s.reg.CounterIn(&s.gets, "pano_store_gets_total", "blob reads").Inc()
}

func (s *Store) gauges() {
	if s.reg == nil {
		return
	}
	s.mu.Lock()
	blobs, bytes := len(s.blobs), s.bytes
	s.mu.Unlock()
	s.reg.Gauge("pano_store_blobs", "blobs indexed").Set(float64(blobs))
	s.reg.Gauge("pano_store_bytes", "bytes held by indexed blobs").Set(float64(bytes))
}
