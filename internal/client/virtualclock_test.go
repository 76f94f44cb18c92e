package client

import (
	"context"
	"testing"
	"time"
)

func TestVirtualClock(t *testing.T) {
	c := NewVirtualClock(10)
	if got := c.Offset(); got != 10*time.Second {
		t.Fatalf("start = %v", got)
	}
	c.Advance(2 * time.Second)
	c.Advance(-5 * time.Second) // ignored
	if got := c.Offset(); got != 12*time.Second {
		t.Fatalf("after advance = %v", got)
	}
	if err := c.Sleep(context.Background(), 3*time.Second); err != nil || c.Offset() != 15*time.Second {
		t.Fatalf("sleep: %v at %v", err, c.Offset())
	}
	if c.AdvanceSec(0.0000000026); c.Offset() != 15*time.Second+3 {
		t.Fatalf("AdvanceSec(2.6ns) to %v: float seconds round to the nearest nanosecond", c.Offset())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Sleep(ctx, time.Second); err == nil {
		t.Fatal("sleep on canceled ctx succeeded")
	}
	// WithTimeout keeps the earliest deadline.
	ctx2, _ := c.WithTimeout(context.Background(), time.Minute)
	ctx3, _ := c.WithTimeout(ctx2, time.Hour)
	dl, ok := virtualDeadline(ctx3)
	if !ok || dl.Sub(c.Now()) != time.Minute {
		t.Fatalf("nested deadline = %v ok=%v", dl.Sub(c.Now()), ok)
	}
}

// TestVirtualClockWithTimeoutAllocatesNothing: an attempt deadline under
// a context that carries none rebinds the clock's own node — no boxed
// time.Time, no context.WithValue node, no cancel closure.
func TestVirtualClockWithTimeoutAllocatesNothing(t *testing.T) {
	c := NewVirtualClock(3)
	type sessionKey struct{}
	parent := context.WithValue(context.Background(), sessionKey{}, "s")
	allocs := testing.AllocsPerRun(100, func() {
		ctx, cancel := c.WithTimeout(parent, time.Second)
		dl, ok := virtualDeadline(ctx)
		cancel()
		if !ok || dl.Sub(c.Now()) != time.Second || ctx.Value(sessionKey{}) != "s" {
			t.Fatalf("deadline %v ok=%v", dl, ok)
		}
		c.Advance(time.Millisecond)
	})
	if allocs != 0 {
		t.Errorf("%v allocs per WithTimeout, want 0", allocs)
	}
	if _, ok := virtualDeadline(parent); ok {
		t.Error("parent context gained a deadline")
	}
}

// TestVirtualClockNestedWithTimeout: a nested deadline keeps the earliest
// of the two whichever is outer, leaves the outer context's own deadline
// alone, and — derived from the clock's own node, directly or through a
// wrapper — never makes that node its own ancestor (a lookup that misses
// must terminate).
func TestVirtualClockNestedWithTimeout(t *testing.T) {
	type otherKey struct{}
	wrap := func(ctx context.Context) context.Context { return context.WithValue(ctx, otherKey{}, 1) }
	plain := func(ctx context.Context) context.Context { return ctx }
	for _, tc := range []struct {
		name         string
		outer, inner time.Duration
		derive       func(context.Context) context.Context
	}{
		{"outer earlier", time.Minute, time.Hour, plain},
		{"outer later", time.Hour, time.Minute, plain},
		{"outer earlier, wrapped", time.Minute, time.Hour, wrap},
		{"outer later, wrapped", time.Hour, time.Minute, wrap},
	} {
		c := NewVirtualClock(10)
		outer, _ := c.WithTimeout(context.Background(), tc.outer)
		inner, _ := c.WithTimeout(tc.derive(outer), tc.inner)
		if dl, ok := virtualDeadline(inner); !ok || dl.Sub(c.Now()) != min(tc.outer, tc.inner) {
			t.Errorf("%s: inner deadline %v ok=%v", tc.name, dl.Sub(c.Now()), ok)
		}
		if dl, ok := virtualDeadline(outer); !ok || dl.Sub(c.Now()) != tc.outer {
			t.Errorf("%s: outer deadline moved to %v ok=%v", tc.name, dl.Sub(c.Now()), ok)
		}
		type missKey struct{}
		if v := inner.Value(missKey{}); v != nil {
			t.Errorf("%s: miss returned %v", tc.name, v)
		}
		// A third level, over the nested node.
		third, _ := c.WithTimeout(wrap(inner), time.Second)
		if dl, _ := virtualDeadline(third); dl.Sub(c.Now()) != time.Second {
			t.Errorf("%s: third deadline %v", tc.name, dl.Sub(c.Now()))
		}
		if v := third.Value(missKey{}); v != nil {
			t.Errorf("%s: miss through three levels returned %v", tc.name, v)
		}
	}
	// Cancellation still flows from the parent through the clock's node.
	c := NewVirtualClock(0)
	parent, cancel := context.WithCancel(context.Background())
	ctx, _ := c.WithTimeout(parent, time.Second)
	cancel()
	if ctx.Err() == nil {
		t.Error("parent cancellation not visible through the deadline context")
	}
}

// virtualDeadline returns the virtual deadline a VirtualClock's
// WithTimeout installed on ctx, if any.
func virtualDeadline(ctx context.Context) (time.Time, bool) {
	if d, ok := ctx.Value(deadlineKey{}).(*deadlineCtx); ok {
		return time.Unix(0, int64(d.dl)).UTC(), true
	}
	return time.Time{}, false
}
