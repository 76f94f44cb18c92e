package chaos

import "time"

// WithNow replaces the Down schedule's clock, so a test drives outage
// windows with a fake one. The injector's start time is read from the
// clock when New returns.
func WithNow(now func() time.Time) Option {
	return func(in *Injector) { in.now = now }
}
