package fleet

import (
	"math"
	"sync/atomic"
)

// Budget is the token bucket guarding hedges and failover retries.
// Every primary request earns `ratio` tokens (capped at `burst`); every
// hedge or failover spends one. With the default ratio 0.1 the fleet
// adds at most ~10% extra origin load no matter how badly a shard
// misbehaves — the property that turns failover into a bounded cost
// instead of a retry storm.
//
// The balance is one atomic word, the float64's bits: Earn and Spend are
// compare-and-swap loops over the same float arithmetic a locked balance
// does, so concurrent walks (fleet.Fetch's) see a linearizable bucket and
// a walk alone (each swarm session's) takes no lock. An Earn into a full
// bucket leaves it as it is and writes nothing.
type Budget struct {
	ratio, burst float64
	tokens       atomic.Uint64 // math.Float64bits of the balance
}

// NewBudget returns a full bucket (a cold start may fail over
// immediately). Non-positive arguments select ratio 0.1 and burst 8.
func NewBudget(ratio, burst float64) *Budget {
	if ratio <= 0 {
		ratio = 0.1
	}
	if burst <= 0 {
		burst = 8
	}
	b := &Budget{ratio: ratio, burst: burst}
	b.tokens.Store(math.Float64bits(burst))
	return b
}

// Earn credits one primary request.
func (b *Budget) Earn() {
	for {
		old := b.tokens.Load()
		t := math.Float64frombits(old) + b.ratio
		if t > b.burst {
			t = b.burst
		}
		next := math.Float64bits(t)
		if next == old || b.tokens.CompareAndSwap(old, next) {
			return
		}
	}
}

// Spend takes one token; it reports false (and takes nothing) when the
// bucket holds less than a full token.
func (b *Budget) Spend() bool {
	for {
		old := b.tokens.Load()
		t := math.Float64frombits(old)
		if t < 1 {
			return false
		}
		if b.tokens.CompareAndSwap(old, math.Float64bits(t-1)) {
			return true
		}
	}
}

// Tokens reads the current balance.
func (b *Budget) Tokens() float64 {
	return math.Float64frombits(b.tokens.Load())
}
