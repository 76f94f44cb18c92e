package store

import (
	"fmt"
	"io"
	"os"
)

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
