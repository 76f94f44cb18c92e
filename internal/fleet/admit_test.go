package fleet

import (
	"testing"
	"time"
)

// TestAdmitConservesSlotsAndTokens walks every exit of the shared
// admission step — allowed, breaker-denied, budget-dry; first request
// and extra; plain and half-open probe — and asserts the conservation
// rule its callers rely on: an admitted request holds exactly what it
// must resolve (one token if extra, the probe slot if probing), and a
// refused one leaves breaker and budget untouched.
func TestAdmitConservesSlotsAndTokens(t *testing.T) {
	t0 := time.Unix(100, 0)
	cfg := BreakerConfig{FailureThreshold: 1, OpenFor: time.Second} // open for 0.75 s to 1.25 s
	type breakerAt func() (*Breaker, time.Time)
	closed := func() (*Breaker, time.Time) { return NewBreaker(cfg, 1), t0 }
	open := func() (*Breaker, time.Time) {
		b := NewBreaker(cfg, 1)
		b.Failure(t0)
		return b, t0.Add(time.Millisecond)
	}
	probeDue := func() (*Breaker, time.Time) {
		b := NewBreaker(cfg, 1)
		b.Failure(t0)
		return b, t0.Add(2 * time.Second)
	}
	probeTaken := func() (*Breaker, time.Time) {
		b, now := probeDue()
		b.Allow(now)
		return b, now
	}

	cases := []struct {
		name      string
		brk       breakerAt
		tokens    float64 // budget balance before the step
		extra     bool
		want      Admission
		wantProbe bool
	}{
		{"closed/first", closed, 0, false, Admitted, false},
		{"closed/extra/funded", closed, 2, true, Admitted, false},
		{"closed/extra/dry", closed, 0, true, BudgetDry, false},
		{"open/first", open, 2, false, BreakerDenied, false},
		{"open/extra", open, 2, true, BreakerDenied, false},
		{"half-open/first", probeDue, 0, false, Admitted, true},
		{"half-open/extra/funded", probeDue, 2, true, Admitted, true},
		{"half-open/extra/dry", probeDue, 0, true, BudgetDry, false},
		{"half-open/slot-taken", probeTaken, 2, true, BreakerDenied, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			brk, now := tc.brk()
			budget := NewBudget(0.1, 8)
			for budget.Tokens() > tc.tokens {
				budget.Spend()
			}
			availBefore := brk.Available(now)

			adm, probe := Admit(brk, budget, now, tc.extra)
			if adm != tc.want || probe != tc.wantProbe {
				t.Fatalf("Admit = (%v, probe %v), want (%v, probe %v)", adm, probe, tc.want, tc.wantProbe)
			}

			wantTokens := tc.tokens
			if adm == Admitted && tc.extra {
				wantTokens--
			}
			if got := budget.Tokens(); got != wantTokens {
				t.Errorf("budget holds %v tokens, want %v", got, wantTokens)
			}
			// The half-open slot is held exactly when the caller was told
			// it probes; every other exit leaves availability as it was.
			wantAvail := availBefore && !probe
			if got := brk.Available(now); got != wantAvail {
				t.Errorf("breaker available = %v after %v, want %v", got, adm, wantAvail)
			}
			if probe {
				brk.ReleaseProbe()
				if !brk.Available(now) {
					t.Error("released probe slot not available again")
				}
			}
		})
	}
}
