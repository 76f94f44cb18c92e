package fleet

import (
	"sync"
	"sync/atomic"
	"time"

	"pano/internal/mathx"
)

// BreakerState is a circuit breaker's position.
type BreakerState int32

const (
	// Closed passes traffic and counts consecutive failures.
	Closed BreakerState = iota
	// HalfOpen admits exactly one probe request; its outcome decides
	// between Closed and Open.
	HalfOpen
	// Open rejects traffic until the (jittered) open interval elapses.
	Open
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case HalfOpen:
		return "half_open"
	default:
		return "open"
	}
}

// BreakerConfig tunes one origin's circuit breaker. The zero value
// selects the defaults.
type BreakerConfig struct {
	// FailureThreshold is the consecutive-failure count that opens a
	// closed breaker (default 5).
	FailureThreshold int
	// OpenFor is the base interval an open breaker rejects traffic
	// before admitting a half-open probe (default 2s).
	OpenFor time.Duration
}

// openJitterFrac spreads each open interval uniformly within
// ±openJitterFrac/2 of OpenFor, so a fleet of breakers opened by the
// same outage doesn't probe in lockstep. The jitter is drawn from a
// seeded RNG, which keeps swarm runs deterministic.
const openJitterFrac = 0.5

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 2 * time.Second
	}
	return c
}

// Breaker is a closed → open → half-open circuit breaker. It never
// reads a clock itself — callers pass `now` in — so the same type
// serves the HTTP fleet under wall time and the swarm under virtual
// time.
//
// Transitions take the mutex; the steady state does not. clean is set,
// under the mutex, exactly when the breaker is Closed with no failure
// streak and no probe out (Allow's transitions stay outside Closed, so
// Success, Failure and ReleaseProbe republish it), and there Allow,
// Available and State answer from it alone and Success has nothing to
// do. A reader that sees it set while a Failure is under way is ordered
// before that Failure, as it would be had it taken the lock first.
type Breaker struct {
	cfg   BreakerConfig
	clean atomic.Bool

	mu      sync.Mutex
	rng     *mathx.RNG
	state   BreakerState
	fails   int
	until   time.Time // Open: when the next half-open probe is due
	probing bool      // HalfOpen: the single probe slot is taken
}

// NewBreaker returns a closed breaker; seed drives the open-interval
// jitter.
func NewBreaker(cfg BreakerConfig, seed uint64) *Breaker {
	b := &Breaker{cfg: cfg.withDefaults(), rng: mathx.NewRNG(seed)}
	b.clean.Store(true)
	return b
}

// settle publishes whether the breaker is clean; mu is held.
func (b *Breaker) settle() {
	b.clean.Store(b.state == Closed && b.fails == 0 && !b.probing)
}

// Allow reports whether a request may go to this origin now. When the
// breaker transitions open → half-open, ok comes with probe=true and
// the single probe slot is consumed: the caller MUST resolve it with
// Success or Failure, and concurrent requests are rejected until it
// does.
func (b *Breaker) Allow(now time.Time) (ok, probe bool) {
	if b.clean.Load() {
		return true, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true, false
	case Open:
		if now.Before(b.until) {
			return false, false
		}
		b.state = HalfOpen
		b.probing = true
		return true, true
	default: // HalfOpen
		if b.probing {
			return false, false
		}
		b.probing = true
		return true, true
	}
}

// Available reports whether the origin would currently accept a request
// without consuming the half-open probe slot — the read-only form of
// Allow for routing decisions that don't issue a request themselves.
func (b *Breaker) Available(now time.Time) bool {
	if b.clean.Load() {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Open:
		return !now.Before(b.until)
	case HalfOpen:
		return !b.probing
	default:
		return true
	}
}

// ReleaseProbe returns an unresolved half-open probe slot — the probe
// request was cancelled before the origin answered, which is neither a
// success nor a health failure.
func (b *Breaker) ReleaseProbe() {
	b.mu.Lock()
	b.probing = false
	b.settle()
	b.mu.Unlock()
}

// Success records a request that reached the origin and got a
// definitive answer. It closes a half-open breaker and resets the
// failure streak.
func (b *Breaker) Success(now time.Time) {
	if b.clean.Load() {
		return
	}
	b.mu.Lock()
	b.state = Closed
	b.fails = 0
	b.probing = false
	b.settle()
	b.mu.Unlock()
}

// Failure records a request the origin failed to answer. A half-open
// probe failure reopens immediately; a closed breaker opens once the
// consecutive-failure streak reaches the threshold.
func (b *Breaker) Failure(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	b.fails++
	if b.state == HalfOpen || b.fails >= b.cfg.FailureThreshold {
		b.state = Open
		b.fails = 0
		b.until = now.Add(b.openFor())
	}
	b.settle()
}

// openFor draws the jittered open interval.
func (b *Breaker) openFor() time.Duration {
	const j = openJitterFrac
	return time.Duration(float64(b.cfg.OpenFor) * (1 - j/2 + j*b.rng.Float64()))
}

// State returns the breaker's position, resolving a due open → half-open
// transition so observers see "half_open" once the probe window starts.
func (b *Breaker) State(now time.Time) BreakerState {
	if b.clean.Load() {
		return Closed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Open && !now.Before(b.until) {
		return HalfOpen
	}
	return b.state
}
