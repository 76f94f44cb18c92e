package obs

import (
	"slices"
	"testing"
)

func TestRingHandsBackWhatItOverwrites(t *testing.T) {
	r := NewRing[int](3)
	if _, ok := r.Oldest(); ok {
		t.Error("empty ring has an oldest value")
	}
	if _, ok := r.Newest(); ok {
		t.Error("empty ring has a newest value")
	}
	var dropped []int
	for v := 1; v <= 7; v++ {
		if old, ok := r.Push(v); ok {
			dropped = append(dropped, old)
		}
		oldest, _ := r.Oldest()
		newest, _ := r.Newest()
		if all := r.All(); all[0] != oldest || all[len(all)-1] != newest || newest != v {
			t.Fatalf("after %d: All %v, oldest %d, newest %d", v, all, oldest, newest)
		}
	}
	if !slices.Equal(dropped, []int{1, 2, 3, 4}) {
		t.Errorf("overwritten %v, want [1 2 3 4]", dropped)
	}
	if all := r.All(); !slices.Equal(all, []int{5, 6, 7}) {
		t.Errorf("All = %v, want [5 6 7]", all)
	}
	all := r.All()
	all[0] = 99
	if again := r.All(); again[0] != 5 {
		t.Error("All shares the ring's storage")
	}
}

// TestRingAtReadsWhatAllCopies: Len and At read the retained values in
// place, in All's order, before the ring fills and after it wraps.
func TestRingAtReadsWhatAllCopies(t *testing.T) {
	r := NewRing[int](4)
	for v := 1; v <= 10; v++ {
		all := r.All()
		if r.Len() != len(all) {
			t.Fatalf("after %d pushes: Len %d, All holds %d", v-1, r.Len(), len(all))
		}
		for i, want := range all {
			if got := r.At(i); got != want {
				t.Fatalf("after %d pushes: At(%d) = %d, All has %d", v-1, i, got, want)
			}
		}
		r.Push(v)
	}
}
