package fleet

import "time"

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

// Admit is the one admission step of every fleet ladder — the HTTP
// fleet's failover rungs and hedges, and the swarm's virtual-time twin:
// the breaker must allow the request, and a request beyond an object's
// first (extra: a failover rung or a hedge) must also buy a budget
// token. A dry bucket hands back the half-open probe slot Allow may
// just have taken: no request will resolve it, and a leaked slot wedges
// the origin out for good wherever no active prober runs. So on every
// exit either the request is admitted holding exactly what it must
// resolve, or breaker and budget are as they were.
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
