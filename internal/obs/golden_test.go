package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestExpositionGolden pins the /metrics bytes of populate's registry:
// every metric type, label values with `"`, `\` and a newline, a
// label-less series, a counter exemplar and a histogram exemplar. A
// missing fixture is written from this run and fails the test: delete
// it only on purpose, and say what moved.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	populate(r)
	var got bytes.Buffer
	if err := r.WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "exposition_golden.txt")
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing; wrote it from this run — review and commit it", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("exposition moved from %s; got:\n%s", path, got.String())
	}
}
