package jnd

import "fmt"

// Zero reports whether all factors are zero (static viewing).
func (f Factors) Zero() bool {
	return f.SpeedDegS == 0 && f.DoFDiff == 0 && f.LumaChange == 0
}

// Validate checks monotonicity and the F(0)=1 normalization.
func (p *Profile) Validate() error {
	check := func(name string, xs, ys []float64) error {
		if len(xs) != len(ys) || len(xs) < 2 {
			return fmt.Errorf("jnd: %s anchors malformed", name)
		}
		if ys[0] != 1 {
			return fmt.Errorf("jnd: %s multiplier at 0 is %v, want 1", name, ys[0])
		}
		for i := 1; i < len(xs); i++ {
			if xs[i] <= xs[i-1] {
				return fmt.Errorf("jnd: %s x anchors not increasing", name)
			}
			if ys[i] < ys[i-1] {
				return fmt.Errorf("jnd: %s multiplier not monotone", name)
			}
		}
		return nil
	}
	if err := check("speed", p.SpeedX, p.SpeedY); err != nil {
		return err
	}
	if err := check("dof", p.DoFX, p.DoFY); err != nil {
		return err
	}
	return check("luma", p.LumaX, p.LumaY)
}

// Len returns the number of cached fields.
func (c *FieldCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns cumulative hit and miss counts (0, 0 for a nil cache).
func (c *FieldCache) Stats() (hits, misses float64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Value(), c.misses.Value()
}
