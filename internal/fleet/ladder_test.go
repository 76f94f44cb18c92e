package fleet

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"testing"
	"time"

	"pano/internal/client"
	"pano/internal/trace"
)

// conserved is the one conservation check of a finished walk, whoever
// walked it: no origin of its order is left with its half-open probe
// slot held (a walk resolves every request it sends, and nothing else is
// in flight on the fleets these tests build), the budget is within
// [0, burst], and there were no more attempts than rounds × origins.
func conserved(l Ladder) error {
	for _, o := range l.order {
		b := l.p.brks[o]
		b.mu.Lock()
		held := b.state == HalfOpen && b.probing
		b.mu.Unlock()
		if held {
			return fmt.Errorf("origin %d's half-open probe slot is still held after the walk", o)
		}
	}
	if tok, burst := l.p.budget.Tokens(), l.p.budget.burst; tok < 0 || tok > burst {
		return fmt.Errorf("budget holds %v tokens, outside [0, %v]", tok, burst)
	}
	if rounds := l.p.fetch.MaxAttempts; l.attempts > rounds*len(l.order) {
		return fmt.Errorf("%d attempts over %d rounds of %d origins", l.attempts, rounds, len(l.order))
	}
	return nil
}

// checks collects what conserved found in every walk this binary ran:
// Fleet.Fetch's under the failover, outage and budget tests, the swarm's
// under the external swarm test, the fuzzer's.
var checks struct {
	sync.Mutex
	walks int
	errs  []error
}

// Checked reports how many walks the checker has seen and its findings.
func Checked() (int, []error) {
	checks.Lock()
	defer checks.Unlock()
	return checks.walks, slices.Clone(checks.errs)
}

func TestMain(m *testing.M) {
	walked = func(l Ladder) {
		err := conserved(l)
		checks.Lock()
		checks.walks++
		if err != nil {
			checks.errs = append(checks.errs, err)
		}
		checks.Unlock()
	}
	code := m.Run()
	if walks, errs := Checked(); len(errs) > 0 {
		fmt.Fprintf(os.Stderr, "conservation broken in %d of %d walks; first: %v\n", len(errs), walks, errs[0])
		code = 1
	}
	os.Exit(code)
}

// TestConservedCatchesALeak: a walk that ends with a probe slot taken and
// never resolved — a117dbd's leak, a dry budget after Allow — fails the
// check.
func TestConservedCatchesALeak(t *testing.T) {
	p := NewPolicy(client.FetchPolicy{}, BreakerConfig{FailureThreshold: 1, OpenFor: time.Second}, 2, 1)
	t0 := time.Unix(100, 0)
	p.brks[1].Failure(t0)
	var l Ladder
	p.Start(&l, []int{0, 1}, 1)
	if err := conserved(l); err != nil {
		t.Fatalf("fresh walk: %v", err)
	}
	p.brks[1].Allow(t0.Add(2 * time.Second)) // the probe slot, taken and dropped
	if err := conserved(l); err == nil {
		t.Fatal("a held probe slot passed the check")
	}
}

// TestUnavailableFetchIsATracedFailure: with every breaker open no
// request is admitted, and the fetch fails with ErrUnavailable — and its
// fleet.route span says so instead of exporting as a success.
func TestUnavailableFetchIsATracedFailure(t *testing.T) {
	ts0, _, _ := newOriginServer(t)
	ts1, _, _ := newOriginServer(t)
	cfg := testConfig(t, []string{ts0.URL, ts1.URL})
	cfg.Breaker = BreakerConfig{FailureThreshold: 1, OpenFor: time.Minute}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, o := range f.ors {
		o.brk.Failure(f.now())
	}
	tr := trace.New(trace.Config{Seed: 3})
	ctx, root := tr.Start(context.Background(), "test")
	_, err = f.Fetch(ctx, "/video/0/0/1.bin", "")
	root.End()
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("fetch with every breaker open: %v, want ErrUnavailable", err)
	}
	spans := tr.Traces()[0].Find("fleet.route")
	if len(spans) != 1 || spans[0].Err == "" {
		t.Fatalf("fleet.route spans %+v: want one, marked failed", spans)
	}
}

// TestLateFailureFailsOverFree is policy 2's exception on the ladder
// alone: three walks are in flight to origin 0 when it dies. The first
// two failures trip its breaker (threshold 2), and their rungs to
// origin 1 each buy a token; the third comes back to a tripped breaker,
// and its rung is free.
func TestLateFailureFailsOverFree(t *testing.T) {
	p := NewPolicy(client.FetchPolicy{HedgeDelay: -1}, BreakerConfig{FailureThreshold: 2, OpenFor: time.Minute}, 2, 1)
	now := time.Unix(100, 0)
	ls := make([]Ladder, 3)
	for i := range ls {
		p.Start(&ls[i], []int{0, 1}, uint64(i))
		if ls[i].Next(now) != Attempt || ls[i].Origin() != 0 {
			t.Fatalf("walk %d: first rung not origin 0", i)
		}
	}
	for i, want := range []float64{7, 6, 6} {
		ls[i].Resolve(false, Failed, errors.New("reset"), now, 0)
		if ls[i].Next(now) != Attempt || ls[i].Origin() != 1 {
			t.Fatalf("walk %d: no failover to origin 1", i)
		}
		if got := p.Budget().Tokens(); got != want {
			t.Errorf("walk %d failed over: budget %v, want %v", i, got, want)
		}
		ls[i].Resolve(false, Answered, nil, now, 0)
		ls[i].End()
	}
}

// TestLadderHedgeDelay is policy 6 and 3: fixed above 0, the clamped p95
// of the answers so far at 0, none below 0 — and never on a probe.
func TestLadderHedgeDelay(t *testing.T) {
	now := time.Unix(100, 0)
	for _, tc := range []struct {
		delay   time.Duration
		samples []time.Duration
		want    time.Duration
		ok      bool
	}{
		{150 * time.Millisecond, nil, 150 * time.Millisecond, true},
		{-1, nil, 0, false},
		{0, nil, 10 * time.Millisecond, true},
		{0, []time.Duration{40 * time.Millisecond}, 40 * time.Millisecond, true},
		{0, []time.Duration{5 * time.Second}, time.Second, true},
	} {
		p := NewPolicy(client.FetchPolicy{HedgeDelay: tc.delay}, BreakerConfig{}, 2, 1)
		for _, d := range tc.samples {
			var l Ladder
			p.Start(&l, []int{0, 1}, 1)
			l.Next(now)
			l.Resolve(false, Answered, nil, now, d)
		}
		var l Ladder
		p.Start(&l, []int{0, 1}, 1)
		l.Next(now)
		if d, ok := l.HedgeDelay(); d != tc.want && ok || ok != tc.ok {
			t.Errorf("HedgeDelay %v after %v: (%v, %v), want (%v, %v)", tc.delay, tc.samples, d, ok, tc.want, tc.ok)
		}
	}
	p := NewPolicy(client.FetchPolicy{HedgeDelay: time.Millisecond}, BreakerConfig{FailureThreshold: 1, OpenFor: time.Second}, 2, 1)
	p.brks[0].Failure(now)
	var l Ladder
	p.Start(&l, []int{0, 1}, 1)
	if l.Next(now.Add(2*time.Second)) != Attempt || !l.probe {
		t.Fatal("a due breaker did not admit its probe")
	}
	if _, ok := l.HedgeDelay(); ok {
		t.Error("a probe attempt may be hedged")
	}
}

// fuzzBytes hands out the fuzzer's bytes, zeros once they run out.
type fuzzBytes []byte

func (b *fuzzBytes) next(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v) % n
}

// FuzzLadder drives random walks through the ladder — breakers closed,
// open or due a probe, a drained budget, and request outcomes answered,
// failed, slow enough to hedge, or cut short by the caller — and checks
// every walk's conservation and policies 1, 3, 4 and 5 as it goes.
func FuzzLadder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 0, 1, 7, 2, 1, 0, 0, 2, 1, 3, 1, 1, 0, 2, 1, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		n := 1 + in.next(4)
		fetch := client.FetchPolicy{
			MaxAttempts: 1 + in.next(3),
			BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond,
			HedgeDelay: []time.Duration{-1, 0, 20 * time.Millisecond}[in.next(3)],
		}
		burst := float64(1 + in.next(3))
		p := NewPolicy(fetch, BreakerConfig{FailureThreshold: 1 + in.next(2), OpenFor: 100 * time.Millisecond}, n, uint64(in.next(256)))
		p.budget = NewBudget(0.5, burst)
		now := time.Unix(1000, 0)
		for _, b := range p.brks {
			switch in.next(3) {
			case 1: // open
				for i := 0; i < 2; i++ {
					b.Failure(now)
				}
			case 2: // due a probe
				for i := 0; i < 2; i++ {
					b.Failure(now.Add(-time.Second))
				}
			}
		}
		for k := in.next(4); k > 0; k-- {
			p.budget.Spend()
		}
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		for i := n - 1; i > 0; i-- {
			j := in.next(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		for w := 1 + in.next(4); w > 0; w-- {
			var l Ladder
			p.Start(&l, order, uint64(w))
			walk(t, &l, &in, &now)
			l.End()
			if err := conserved(l); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// walk steps l through one walk as the fuzzer's bytes choose.
func walk(t *testing.T, l *Ladder, in *fuzzBytes, now *time.Time) {
	for {
		switch l.Next(*now) {
		case Backoff:
			*now = now.Add(l.Backoff())
			continue
		case Dry, Exhausted:
			if l.Err() == nil {
				t.Fatal("a failed walk without an error")
			}
			return
		}
		pos := slices.Index(l.order, l.Origin())
		d, hedgeable := l.HedgeDelay()
		if hedgeable && l.probe {
			t.Fatal("policy 3: a probe attempt may be hedged")
		}
		if b := l.Backup(); b >= 0 {
			if bp := slices.Index(l.order, b); bp <= pos || slices.ContainsFunc(l.order[pos+1:bp], func(o int) bool { return l.p.brks[o].Available(l.at) }) {
				t.Fatalf("policy 4: backup %d of order %v after primary %d is not the first available", b, l.order, l.Origin())
			}
		}
		pout := Outcome(in.next(3))
		hedged, hout := false, Outcome(in.next(3))
		if hedgeable && in.next(2) == 1 { // the primary is slow
			hedged = l.Hedge(now.Add(d)) == Admitted
		}
		*now = now.Add(time.Duration(in.next(50)) * time.Millisecond)
		if pout == Cancelled || hedged && hout == Cancelled {
			// The caller gave up: everything in flight was cut short.
			l.Resolve(false, Cancelled, nil, *now, 0)
			if hedged {
				l.Resolve(true, Cancelled, nil, *now, 0)
			}
			return
		}
		if hedged && hout == Answered && pout != Answered {
			l.Resolve(true, hout, nil, *now, time.Millisecond)
			l.Resolve(false, Cancelled, nil, *now, 0)
		} else {
			l.Resolve(false, pout, errors.New("primary"), *now, time.Millisecond)
			if hedged {
				out := hout
				if pout == Answered {
					out = Cancelled
				}
				l.Resolve(true, out, errors.New("hedge"), *now, time.Millisecond)
			}
		}
		if pout == Answered || hedged && hout == Answered {
			if want := l.attempts > 1 || pout != Answered; l.Failover() != want {
				t.Fatalf("policy 5: failover %v after %d attempts, hedge answered %v", l.Failover(), l.attempts, pout != Answered)
			}
			return
		}
	}
}
