package client

import "time"

// SetWallNow swaps the real clock's time source and returns the func
// that restores it, for the clock-audit case that lives in the external
// test package (it imports internal/sim, which imports this package).
func SetWallNow(f func() time.Time) (restore func()) {
	orig := wallNow
	wallNow = f
	return func() { wallNow = orig }
}
