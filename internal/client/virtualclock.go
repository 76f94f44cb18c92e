package client

import (
	"context"
	"time"

	"pano/internal/nettrace"
)

// VirtualClock implements Clock in discrete-event time — the clock of
// every simulated session (internal/sim, internal/swarm): Sleep
// advances instead of blocking, WithTimeout installs a logical
// deadline the virtual transport honours, and Now is the session's
// accumulated offset past a fixed epoch, the Unix epoch (a constant, not
// time.Now, so every run of the same configuration produces
// byte-identical timelines), in virtual time's one base (see VirtualNet).
// Each running session owns exactly one goroutine, so the clock is
// deliberately unlocked — sharing one VirtualClock across goroutines is a
// bug.
type VirtualClock struct {
	off     time.Duration // virtual time since epoch
	attempt deadlineCtx   // the context WithTimeout hands out
}

// NewVirtualClock returns a clock positioned startSec virtual seconds
// past the global epoch (the session's arrival time).
func NewVirtualClock(startSec float64) *VirtualClock {
	return &VirtualClock{off: nettrace.Nanos(startSec)}
}

// Now implements Clock.
func (c *VirtualClock) Now() time.Time { return time.Unix(0, int64(c.off)).UTC() }

// Since implements Clock. A time this clock handed out is the epoch plus
// an offset, its UnixNano, so what elapsed is a difference of offsets.
func (c *VirtualClock) Since(t time.Time) time.Duration { return c.off - time.Duration(t.UnixNano()) }

// Offset returns the current virtual instant, the time past the epoch:
// the axis of bandwidth traces, outage schedules and origin-load buckets.
func (c *VirtualClock) Offset() time.Duration { return c.off }

// Advance moves the clock forward by d (negative d is ignored).
func (c *VirtualClock) Advance(d time.Duration) { c.off += max(0, d) }

// AdvanceSec moves the clock forward by s seconds.
func (c *VirtualClock) AdvanceSec(s float64) { c.Advance(nettrace.Nanos(s)) }

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

// deadlineOf returns the nearest deadline node of ctx, nil when it has
// none. An attempt's context is the node WithTimeout handed out, so a
// transport honouring it finds it without walking the chain again.
func deadlineOf(ctx context.Context) *deadlineCtx {
	d, ok := ctx.(*deadlineCtx)
	if !ok {
		d, _ = ctx.Value(deadlineKey{}).(*deadlineCtx)
	}
	return d
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
	if cur := deadlineOf(ctx); cur != nil {
		out = new(deadlineCtx)
		dl = min(dl, cur.dl)
	}
	out.Context, out.dl = ctx, dl
	return out, nopCancel
}
