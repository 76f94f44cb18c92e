package client

import (
	"context"
	"testing"
	"time"
)

func TestVirtualClock(t *testing.T) {
	c := NewVirtualClock(10)
	if got := c.NowSec(); got != 10 {
		t.Fatalf("start = %v", got)
	}
	c.Advance(2 * time.Second)
	c.Advance(-5 * time.Second) // ignored
	if got := c.NowSec(); got != 12 {
		t.Fatalf("after advance = %v", got)
	}
	c.AdvanceTo(epoch.Add(5 * time.Second)) // backward: ignored
	if got := c.NowSec(); got != 12 {
		t.Fatalf("after backward AdvanceTo = %v", got)
	}
	if err := c.Sleep(context.Background(), 3*time.Second); err != nil || c.NowSec() != 15 {
		t.Fatalf("sleep: %v at %v", err, c.NowSec())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Sleep(ctx, time.Second); err == nil {
		t.Fatal("sleep on canceled ctx succeeded")
	}
	// WithTimeout keeps the earliest deadline.
	ctx2, _ := c.WithTimeout(context.Background(), time.Minute)
	ctx3, _ := c.WithTimeout(ctx2, time.Hour)
	dl, ok := VirtualDeadline(ctx3)
	if !ok || dl.Sub(c.Now()) != time.Minute {
		t.Fatalf("nested deadline = %v ok=%v", dl.Sub(c.Now()), ok)
	}
}
