package fleet

import (
	"errors"
	"slices"
	"sync"
	"time"

	"pano/internal/client"
	"pano/internal/mathx"
)

// ErrUnavailable ends a walk in which no request was admitted: every
// round found every breaker open.
var ErrUnavailable = errors.New("fleet: every origin breaker open")

// Admission is the outcome of Admit.
type Admission int

const (
	// Admitted: the request may go; a true probe result means it holds
	// the breaker's half-open slot and must resolve it (Success,
	// Failure, or ReleaseProbe).
	Admitted Admission = iota
	// BreakerDenied: the breaker rejects traffic; nothing was consumed.
	BreakerDenied
	// BudgetDry: the breaker would have let the request through but the
	// retry/hedge bucket is empty; nothing stays consumed.
	BudgetDry
)

// Admit is the Ladder's one admission step, for failover rungs and
// hedges alike: the breaker must allow the request, and a request beyond
// an object's first (extra) must also buy a budget token. A dry bucket
// hands back the half-open probe slot Allow may just have taken: no
// request will resolve it, and a leaked slot wedges the origin out for
// good wherever no active prober runs. So on every exit either the
// request is admitted holding exactly what it must resolve, or breaker
// and budget are as they were.
func Admit(brk *Breaker, budget *Budget, now time.Time, extra bool) (adm Admission, probe bool) {
	ok, probe := brk.Allow(now)
	if !ok {
		return BreakerDenied, false
	}
	if extra && !budget.Spend() {
		if probe {
			brk.ReleaseProbe()
		}
		return BudgetDry, false
	}
	return Admitted, probe
}

// Policy is what every walk over one fleet shares: the fetch policy, one
// breaker per origin, the retry/hedge budget and, when the hedge delay
// is adaptive, the latency tracker.
type Policy struct {
	fetch  client.FetchPolicy
	brks   []*Breaker
	budget *Budget
	lat    *latTracker // nil unless HedgeDelay is 0
}

// The retry/hedge budget: each primary request earns budgetRatio tokens
// and each hedge or failover spends one, so they add at most ~10 %
// extra origin load and shard loss never becomes a retry storm; the
// bucket holds at most budgetBurst.
const (
	budgetRatio = 0.1
	budgetBurst = 8
)

// NewPolicy builds the shared state of n origins. Breaker i draws its
// jitter from seed ^ i·φ.
func NewPolicy(fetch client.FetchPolicy, brk BreakerConfig, n int, seed uint64) *Policy {
	p := &Policy{fetch: fetch.WithDefaults(), brks: make([]*Breaker, n)}
	for i := range p.brks {
		p.brks[i] = NewBreaker(brk, seed^uint64(i)*0x9e3779b97f4a7c15)
	}
	p.budget = NewBudget(budgetRatio, budgetBurst)
	if p.fetch.HedgeDelay == 0 {
		p.lat = newLatTracker()
	}
	return p
}

// Breaker returns origin i's breaker; Budget the retry/hedge budget.
func (p *Policy) Breaker(i int) *Breaker { return p.brks[i] }
func (p *Policy) Budget() *Budget        { return p.budget }

// Step is what Next asks of its caller.
type Step int

const (
	Attempt   Step = iota // send the primary request to Origin
	Backoff               // a round ended unanswered: wait Backoff, then Next
	Dry                   // the budget cannot pay for the next rung: fail with Err
	Exhausted             // every round is spent: fail with Err
)

// Outcome is how one request ended.
type Outcome int

const (
	Answered  Outcome = iota // a definitive origin answer: a health success
	Failed                   // no answer in time or at all: a health failure
	Cancelled                // cut short from outside (the race was decided, the caller gave up): no signal
)

// Ladder is one object's walk through a fleet: the one failover policy
// that both of its callers follow, fleet.Fetch on the wall clock over
// HTTP and the swarm's virtual transport on a virtual clock with
// analytic costs. It reads no clock and starts no goroutine; the caller
// sends the requests and reports how each ended. The policy:
//
//  1. Rounds. Up to MaxAttempts passes over the key's ring order, with
//     the FetchPolicy's Backoff(round) between passes. The backoff RNG is
//     made only when a round ends.
//  2. Admission goes through Admit. Every request beyond the object's
//     first, a failover rung or a hedge, buys a budget token, and a dry
//     budget ends the walk — except the rung after a late failure: a
//     primary that fails after its origin's breaker left Closed was in
//     flight when other requests' failures tripped it, and a walk
//     started a moment later would have made that rung its first. So
//     concurrent walks to an origin that dies pay for the failures that
//     trip its breaker, not for every one in flight. A hedge to a
//     half-open origin takes its probe slot, and a hedge that loses
//     hands it back.
//  3. A probe attempt is never hedged.
//  4. The backup is the first origin after the primary, in ring order,
//     whose breaker was Available when the attempt was admitted.
//  5. A failover is counted when more than one attempt was made or a
//     hedge answered.
//  6. HedgeDelay above 0 is a fixed delay; at 0 it is the p95 of the
//     fleet's recent successful request latencies, clamped to
//     [10 ms, 1 s]; below 0 it disables hedging.
//
// The caller calls Next until it says Attempt and sends the primary; if
// HedgeDelay allows and the primary is still in flight when it expires,
// it calls Hedge and sends the backup. It reports every request it sent
// to Resolve — the first one reported Answered answers the object — and
// calls End once the walk is over, however it ended.
type Ladder struct {
	p           *Policy
	order       []int
	seed        uint64
	rng         *mathx.RNG
	round, next int // the next rung is order[next] of pass round
	attempts    int
	err         error // the first failure of the last attempt that failed

	// the attempt in flight
	at                time.Time // when it was admitted
	origin, backup    int       // backup is -2 until Backup looks
	probe, hedgeProbe bool
	failed, answered  bool
	byHedge           bool
	late              bool // the primary failed after its breaker had tripped (policy 2)
}

// Start begins l's walk over order, an object's ring order, crediting
// the budget with its primary request; seed drives the backoff jitter.
// l may hold an earlier walk: Start resets what the walk reads before it
// writes it, and Next sets the attempt's own fields as it admits one.
func (p *Policy) Start(l *Ladder, order []int, seed uint64) {
	p.budget.Earn()
	l.p, l.order, l.seed, l.rng = p, order, seed, nil
	l.round, l.next, l.attempts, l.err = 0, 0, 0, nil
	l.answered, l.byHedge, l.late = false, false, false
}

// Next admits the next rung at now.
func (l *Ladder) Next(now time.Time) Step {
	for {
		if l.next == len(l.order) {
			l.next = 0
			if l.round++; l.round >= l.p.fetch.MaxAttempts {
				return Exhausted
			}
			return Backoff
		}
		o := l.order[l.next]
		l.next++
		adm, probe := Admit(l.p.brks[o], l.p.budget, now, l.attempts > 0 && !l.late)
		if adm == BudgetDry {
			return Dry
		}
		if adm == Admitted {
			l.attempts++
			l.at = now
			l.origin, l.backup, l.probe, l.failed, l.late = o, -2, probe, false, false
			return Attempt
		}
	}
}

// Backoff is the wait a Backoff step asks for.
func (l *Ladder) Backoff() time.Duration {
	if l.rng == nil {
		l.rng = mathx.NewRNG(l.seed)
	}
	return l.p.fetch.Backoff(l.round-1, l.rng)
}

// Origin is the attempt's primary; Attempts counts the attempts so far.
func (l *Ladder) Origin() int   { return l.origin }
func (l *Ladder) Attempts() int { return l.attempts }

// Backup is the attempt's hedge target (policy 4), -1 when there is
// none. It is looked up on first use.
func (l *Ladder) Backup() int {
	if l.backup == -2 {
		l.backup = -1
		for _, o := range l.order[l.next:] {
			if l.p.brks[o].Available(l.at) {
				l.backup = o
				break
			}
		}
	}
	return l.backup
}

// HedgeDelay reports whether the attempt may be hedged at all and how
// long the primary must be in flight before a backup races it.
func (l *Ladder) HedgeDelay() (time.Duration, bool) {
	switch d := l.p.fetch.HedgeDelay; {
	case l.probe || d < 0:
		return 0, false
	case d > 0:
		return d, true
	}
	return min(max(l.p.lat.p95(), 10*time.Millisecond), time.Second), true
}

// Hedge admits the backup at now, the primary still in flight.
func (l *Ladder) Hedge(now time.Time) Admission {
	if l.Backup() < 0 {
		return BreakerDenied
	}
	adm, probe := Admit(l.p.brks[l.backup], l.p.budget, now, true)
	l.hedgeProbe = probe
	return adm
}

// Resolve reports how the attempt's primary or admitted hedge ended at
// now, after took in flight; err is the failure.
func (l *Ladder) Resolve(hedge bool, out Outcome, err error, now time.Time, took time.Duration) {
	brk, probe := l.p.brks[l.origin], l.probe
	if hedge {
		brk, probe = l.p.brks[l.backup], l.hedgeProbe
	}
	switch {
	case out == Answered:
		brk.Success(now)
		if l.p.lat != nil {
			l.p.lat.observe(took)
		}
		if !l.answered {
			l.answered, l.byHedge = true, hedge
		}
	case out == Failed:
		if !hedge && !probe && brk.State(now) != Closed {
			l.late = true
		}
		brk.Failure(now)
		if !l.failed {
			l.err, l.failed = err, true
		}
	case probe:
		brk.ReleaseProbe()
	}
}

// Failover reports whether the answer counts as a failover (policy 5).
func (l *Ladder) Failover() bool { return l.attempts > 1 || l.byHedge }

// Err is the walk's failure: the last failed attempt's first error, or
// ErrUnavailable when nothing was admitted.
func (l *Ladder) Err() error {
	if l.err == nil {
		return ErrUnavailable
	}
	return l.err
}

// walked, when set, sees every walk as it ends: the seam of the tests'
// conservation checker, a package variable because it must also reach
// the walks of fleets other packages build (the swarm's, per session).
var walked func(Ladder)

// End closes the walk.
func (l *Ladder) End() {
	if walked != nil {
		walked(*l)
	}
}

// latTracker keeps a small reservoir of recent successful request
// latencies and reports their p95 for the adaptive hedge delay. The
// reservoir is held twice — in arrival order, to know which sample the
// next one evicts, and ascending — so that p95, which every hedgeable
// attempt reads, is an index, and observe moves at most the 128 sorted
// samples.
type latTracker struct {
	mu     sync.Mutex
	buf    [128]time.Duration // ring, arrival order
	sorted [128]time.Duration // the same n samples, ascending
	n      int                // filled entries
	next   int                // ring write position
}

func newLatTracker() *latTracker { return &latTracker{} }

func (l *latTracker) observe(d time.Duration) {
	l.mu.Lock()
	s := l.sorted[:l.n]
	if l.n == len(l.buf) {
		evicted, _ := slices.BinarySearch(s, l.buf[l.next])
		s = slices.Delete(s, evicted, evicted+1)
	} else {
		l.n++
	}
	at, _ := slices.BinarySearch(s, d)
	s = s[:len(s)+1]
	copy(s[at+1:], s[at:])
	s[at] = d
	l.buf[l.next] = d
	l.next = (l.next + 1) % len(l.buf)
	l.mu.Unlock()
}

// p95 returns the 95th percentile of the reservoir (0 when empty — the
// caller clamps it).
func (l *latTracker) p95() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n == 0 {
		return 0
	}
	return l.sorted[l.n*95/100]
}
