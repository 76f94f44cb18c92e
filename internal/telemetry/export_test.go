package telemetry

import "time"

// Interval returns the configured scrape period (0 on nil).
func (s *Sampler) Interval() time.Duration {
	if s == nil {
		return 0
	}
	return s.cfg.Interval
}

// Store exposes the windowed series store (nil on the no-op sampler).
func (s *Sampler) Store() *Store {
	if s == nil {
		return nil
	}
	return s.store
}
