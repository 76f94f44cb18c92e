package fleet

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pano/internal/mathx"
)

// refBreaker and refBudget are Breaker and Budget as they were when
// every call took the mutex: the oracle of the steady state's lock-free
// answers.
type refBreaker struct {
	cfg     BreakerConfig
	mu      sync.Mutex
	rng     *mathx.RNG
	state   BreakerState
	fails   int
	until   time.Time
	probing bool
}

func newRefBreaker(cfg BreakerConfig, seed uint64) *refBreaker {
	return &refBreaker{cfg: cfg.withDefaults(), rng: mathx.NewRNG(seed)}
}

func (b *refBreaker) Allow(now time.Time) (ok, probe bool) {
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
	default:
		if b.probing {
			return false, false
		}
		b.probing = true
		return true, true
	}
}

func (b *refBreaker) Available(now time.Time) bool {
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

func (b *refBreaker) ReleaseProbe() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

func (b *refBreaker) Success(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = Closed
	b.fails = 0
	b.probing = false
}

func (b *refBreaker) Failure(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	b.fails++
	if b.state == HalfOpen || b.fails >= b.cfg.FailureThreshold {
		b.state = Open
		b.fails = 0
		const j = openJitterFrac
		b.until = now.Add(time.Duration(float64(b.cfg.OpenFor) * (1 - j/2 + j*b.rng.Float64())))
	}
}

func (b *refBreaker) State(now time.Time) BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Open && !now.Before(b.until) {
		return HalfOpen
	}
	return b.state
}

type refBudget struct {
	ratio, burst float64
	mu           sync.Mutex
	tokens       float64
}

func (b *refBudget) Earn() {
	b.mu.Lock()
	if b.tokens += b.ratio; b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.mu.Unlock()
}

func (b *refBudget) Spend() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// TestFastPathsMatchLockedModel replays seeded random sequences of every
// Breaker and Budget call at an advancing now against the locked oracle:
// every return is the oracle's, and after every step so are the
// breaker's position, failure streak, reopen time and probe slot and the
// budget's balance, bit for bit; and the clean flag is set exactly in
// the steady state it stands for. An Allow, Available or State that
// answers from a stale flag after a Failure, a Success that skips a
// streak, or an Earn that skips a credit below burst diverges here.
func TestFastPathsMatchLockedModel(t *testing.T) {
	steps, clean, probes, dry := 0, 0, 0, 0
	for seed := uint64(1); seed <= 60; seed++ {
		rng := mathx.NewRNG(seed)
		cfg := BreakerConfig{FailureThreshold: 1 + rng.Intn(4), OpenFor: time.Duration(1+rng.Intn(3)) * time.Second}
		ratio, burst := []float64{0.1, 0.25, 0.3}[rng.Intn(3)], float64(1+rng.Intn(8))
		b, ref := NewBreaker(cfg, seed), newRefBreaker(cfg, seed)
		bud, refBud := NewBudget(ratio, burst), &refBudget{ratio: ratio, burst: burst, tokens: burst}
		now := time.Unix(1000, 0)
		for i := 0; i < 3000; i++ {
			now = now.Add(time.Duration(rng.Intn(400)) * time.Millisecond)
			op := rng.Intn(9)
			switch op {
			case 0:
				ok, probe := b.Allow(now)
				rok, rprobe := ref.Allow(now)
				if ok != rok || probe != rprobe {
					t.Fatalf("seed %d step %d: Allow (%v, %v), locked (%v, %v)", seed, i, ok, probe, rok, rprobe)
				}
				if probe {
					probes++
				}
			case 1:
				if got, want := b.Available(now), ref.Available(now); got != want {
					t.Fatalf("seed %d step %d: Available %v, locked %v", seed, i, got, want)
				}
			case 2:
				if got, want := b.State(now), ref.State(now); got != want {
					t.Fatalf("seed %d step %d: State %v, locked %v", seed, i, got, want)
				}
			case 3:
				b.Success(now)
				ref.Success(now)
			case 4, 5:
				b.Failure(now)
				ref.Failure(now)
			case 6:
				b.ReleaseProbe()
				ref.ReleaseProbe()
			case 7:
				got, want := bud.Spend(), refBud.Spend()
				if got != want {
					t.Fatalf("seed %d step %d: Spend %v, locked %v", seed, i, got, want)
				}
				if !got {
					dry++
				}
			case 8:
				for n := rng.Intn(12); n >= 0; n-- {
					bud.Earn()
					refBud.Earn()
				}
			}
			steps++
			if b.state != ref.state || b.fails != ref.fails || !b.until.Equal(ref.until) || b.probing != ref.probing {
				t.Fatalf("seed %d step %d (op %d): breaker {%v %d %v %v}, locked {%v %d %v %v}", seed, i, op,
					b.state, b.fails, b.until, b.probing, ref.state, ref.fails, ref.until, ref.probing)
			}
			want := b.state == Closed && b.fails == 0 && !b.probing
			if b.clean.Load() != want {
				t.Fatalf("seed %d step %d (op %d): clean %v, steady state %v", seed, i, op, b.clean.Load(), want)
			}
			if want {
				clean++
			}
			if got := bud.Tokens(); math.Float64bits(got) != math.Float64bits(refBud.tokens) {
				t.Fatalf("seed %d step %d (op %d): tokens %v, locked %v", seed, i, op, got, refBud.tokens)
			}
		}
	}
	t.Logf("%d steps: %d clean, %d probes admitted, %d dry spends", steps, clean, probes, dry)
	if clean == 0 || clean == steps || probes == 0 || dry == 0 {
		t.Error("the sequences never leave, or never reach, the steady state, a probe or a dry bucket")
	}
}

// TestFastPathsUnderConcurrency hammers one Breaker and one Budget from
// several goroutines (run under -race: make race). Every balance read
// lies in [0, burst], and a half-open window admits one probe at a time:
// now stands still within a phase and moves between phases, once every
// request of the phase is resolved, so a breaker opened in a phase stays
// open through it and a second probe out at once could only come from
// one window.
func TestFastPathsUnderConcurrency(t *testing.T) {
	const workers, phases, ops = 4, 200, 500
	cfg := BreakerConfig{FailureThreshold: 3, OpenFor: time.Second}
	b := NewBreaker(cfg, 5)
	bud := NewBudget(0.1, 4)
	var probesOut, maxOut, admitted, probesSeen atomic.Int64
	now := time.Unix(1000, 0)
	for ph := 0; ph < phases; ph++ {
		now = now.Add(time.Duration(ph%7) * 300 * time.Millisecond)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed uint64, now time.Time) {
				defer wg.Done()
				rng := mathx.NewRNG(seed)
				type req struct{ probe bool }
				var held []req
				resolve := func(r req) {
					if r.probe {
						probesOut.Add(-1)
					}
					switch rng.Intn(4) {
					case 0, 1:
						b.Success(now)
					case 2:
						b.Failure(now)
					default:
						if r.probe {
							b.ReleaseProbe()
						}
					}
				}
				for i := 0; i < ops; i++ {
					switch rng.Intn(6) {
					case 0, 1:
						ok, probe := b.Allow(now)
						if !ok {
							continue
						}
						admitted.Add(1)
						if probe {
							probesSeen.Add(1)
							n := probesOut.Add(1)
							for m := maxOut.Load(); n > m && !maxOut.CompareAndSwap(m, n); m = maxOut.Load() {
							}
						}
						held = append(held, req{probe})
					case 2:
						if len(held) > 0 {
							resolve(held[len(held)-1])
							held = held[:len(held)-1]
						}
					case 3:
						b.Available(now)
						b.State(now)
					case 4:
						bud.Spend()
					default:
						bud.Earn()
					}
					if tok := bud.Tokens(); !(tok >= 0 && tok <= 4) {
						t.Errorf("tokens %v outside [0, 4]", tok)
					}
				}
				for _, r := range held {
					resolve(r)
				}
			}(uint64(ph*workers+w+1), now)
		}
		wg.Wait()
		if n := probesOut.Load(); n != 0 {
			t.Fatalf("phase %d: %d probes unresolved after every request resolved", ph, n)
		}
	}
	t.Logf("%d admitted, %d probes, at most %d out at once", admitted.Load(), probesSeen.Load(), maxOut.Load())
	if maxOut.Load() > 1 {
		t.Errorf("%d probes out at once in one half-open window, want at most 1", maxOut.Load())
	}
	if probesSeen.Load() == 0 {
		t.Error("no probe was ever admitted: the phases never reach half-open")
	}
}
