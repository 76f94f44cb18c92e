package client

import (
	"context"
	"time"
)

// epoch anchors virtual time. It is a constant (not time.Now) so every
// run of the same configuration produces byte-identical timelines.
var epoch = time.Unix(0, 0).UTC()

// VirtualClock implements Clock in discrete-event time — the clock of
// every simulated session (internal/sim, internal/swarm): Sleep
// advances instead of blocking, WithTimeout installs a logical
// deadline the virtual transport honours, and Now derives from a fixed
// epoch plus the session's accumulated offset. Each running session
// owns exactly one goroutine, so the clock is deliberately unlocked —
// sharing one VirtualClock across goroutines is a bug.
type VirtualClock struct {
	off     time.Duration // virtual time since epoch
	attempt deadlineCtx   // the context WithTimeout hands out
}

// NewVirtualClock returns a clock positioned startSec virtual seconds
// past the global epoch (the session's arrival time).
func NewVirtualClock(startSec float64) *VirtualClock {
	return &VirtualClock{off: time.Duration(startSec * float64(time.Second))}
}

// Now implements Clock.
func (c *VirtualClock) Now() time.Time { return epoch.Add(c.off) }

// Since implements Clock.
func (c *VirtualClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// NowSec returns the current virtual time in seconds past the epoch —
// the time axis shared by bandwidth traces and origin-load buckets.
func (c *VirtualClock) NowSec() float64 { return c.off.Seconds() }

// Advance moves the clock forward by d (negative d is ignored).
func (c *VirtualClock) Advance(d time.Duration) {
	if d > 0 {
		c.off += d
	}
}

// AdvanceSec moves the clock forward by s seconds.
func (c *VirtualClock) AdvanceSec(s float64) {
	c.Advance(time.Duration(s * float64(time.Second)))
}

// AdvanceTo moves the clock forward to t (never backward).
func (c *VirtualClock) AdvanceTo(t time.Time) { c.advanceTo(t.Sub(epoch)) }

// advanceTo moves the clock forward to off past the epoch.
func (c *VirtualClock) advanceTo(off time.Duration) {
	if off > c.off {
		c.off = off
	}
}

// Sleep implements Clock: it advances virtual time instantly.
func (c *VirtualClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.Advance(d)
	return nil
}

// deadlineKey finds the nearest deadlineCtx in a context chain.
type deadlineKey struct{}

// deadlineCtx is its parent context plus a virtual deadline, dl past
// the epoch. Value answers deadlineKey with the node itself, so reading
// the deadline boxes nothing.
type deadlineCtx struct {
	context.Context
	dl time.Duration
}

func (d *deadlineCtx) Value(key any) any {
	if _, ok := key.(deadlineKey); ok {
		return d
	}
	return d.Context.Value(key)
}

func nopCancel() {}

// WithTimeout implements Clock: the returned context carries a
// virtual deadline (the earliest of d from now and any deadline
// already installed) that the virtual transport checks before
// advancing past it. The cancel func is a no-op — virtual deadlines
// hold no resources.
//
// A session's attempts are strictly sequential, so a context derived
// from one without a deadline is the clock's own node, rebound: it is
// valid until the next such call, and the call allocates nothing. A
// nested call (ctx already carries a deadline, possibly this clock's
// own node) gets a fresh node, so the clock's node never becomes its
// own ancestor.
func (c *VirtualClock) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	out, dl := &c.attempt, c.off+d
	if cur, ok := ctx.Value(deadlineKey{}).(*deadlineCtx); ok {
		out = new(deadlineCtx)
		dl = min(dl, cur.dl)
	}
	out.Context, out.dl = ctx, dl
	return out, nopCancel
}

// VirtualDeadline returns the virtual deadline a VirtualClock's
// WithTimeout installed on ctx, if any; virtual transports check it
// before advancing the clock past it.
func VirtualDeadline(ctx context.Context) (time.Time, bool) {
	if d, ok := ctx.Value(deadlineKey{}).(*deadlineCtx); ok {
		return epoch.Add(d.dl), true
	}
	return time.Time{}, false
}
