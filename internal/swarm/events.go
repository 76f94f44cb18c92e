package swarm

import "cmp"

// event is one timed occurrence in the discrete-event schedule: a
// session arrival (delta +1) or departure (delta -1).
type event struct {
	at    float64
	id    int
	delta int
}

// byTime orders events by (time, departures before arrivals, session
// id) — a total order, so a sorted schedule is the same however its
// events were gathered.
func byTime(a, b event) int {
	return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.delta, b.delta), cmp.Compare(a.id, b.id))
}
