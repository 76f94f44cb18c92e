package chaos

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Parse builds a Profile from a compact comma-separated spec, the
// format the -chaos flag and the bench scripts use:
//
//	seed=7,tile-error=0.1,tile-latency=2ms,tile-jitter=1ms,window=20:5
//
// Keys:
//
//	seed=N                 decision seed (default 1)
//	window=P:F             flaky window: F flaky requests per period of P
//	down=always            hard outage: every request aborted
//	down=A+F               outage window: down F long, starting A in
//	down=A+F/E             flapping: the A+F window repeats every E
//	manifest-error=R       manifest 500 probability
//	manifest-latency=D     manifest added latency
//	tile-error=R           tile 500 probability
//	tile-abort=R           tile connection-abort probability
//	tile-truncate=R        tile truncated-body probability
//	tile-stall=R           tile mid-body stall probability
//	tile-stall-for=D       stall duration (default 250ms)
//	tile-latency=D         tile added latency
//	tile-jitter=D          uniform extra tile latency in [0, D)
//	tile-throttle-bps=F    tile body bandwidth cap, bits/second
//
// R is a probability in [0, 1], D a non-negative Go duration, N/F
// non-negative numbers (P positive, F finite). An empty spec returns a
// disabled (zero) Profile.
func Parse(spec string) (Profile, error) {
	p := Profile{Seed: 1}
	if strings.TrimSpace(spec) == "" {
		return Profile{}, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return Profile{}, fmt.Errorf("chaos: bad spec element %q (want key=value)", part)
		}
		var err error
		switch key {
		case "seed":
			p.Seed, err = strconv.ParseUint(val, 10, 64)
		case "window":
			per, fl, ok := strings.Cut(val, ":")
			if !ok {
				return Profile{}, fmt.Errorf("chaos: bad window %q (want period:flaky)", val)
			}
			if p.Window.Period, err = strconv.Atoi(per); err == nil {
				p.Window.Flaky, err = strconv.Atoi(fl)
			}
			if err == nil && (p.Window.Period <= 0 || p.Window.Flaky < 0) {
				err = fmt.Errorf("window %q out of range", val)
			}
		case "down":
			p.Down, err = parseDown(val)
		case "manifest-error":
			p.Manifest.ErrorRate, err = parseRate(val)
		case "manifest-latency":
			p.Manifest.Latency, err = parseDuration(val)
		case "tile-error":
			p.Tile.ErrorRate, err = parseRate(val)
		case "tile-abort":
			p.Tile.AbortRate, err = parseRate(val)
		case "tile-truncate":
			p.Tile.TruncateRate, err = parseRate(val)
		case "tile-stall":
			p.Tile.StallRate, err = parseRate(val)
		case "tile-stall-for":
			p.Tile.StallFor, err = parseDuration(val)
		case "tile-latency":
			p.Tile.Latency, err = parseDuration(val)
		case "tile-jitter":
			p.Tile.Jitter, err = parseDuration(val)
		case "tile-throttle-bps":
			p.Tile.ThrottleBps, err = strconv.ParseFloat(val, 64)
			if err == nil && !(p.Tile.ThrottleBps >= 0 && p.Tile.ThrottleBps <= math.MaxFloat64) {
				err = fmt.Errorf("throttle %v out of range", p.Tile.ThrottleBps)
			}
		default:
			return Profile{}, fmt.Errorf("chaos: unknown spec key %q", key)
		}
		if err != nil {
			return Profile{}, fmt.Errorf("chaos: bad value for %q: %v", key, err)
		}
	}
	return p, nil
}

// parseDown parses an outage schedule: "always", "A+F" (one-shot
// window), or "A+F/E" (flapping with period E).
func parseDown(s string) (Down, error) {
	if s == "always" {
		return Down{Always: true}, nil
	}
	after, rest, ok := strings.Cut(s, "+")
	if !ok {
		return Down{}, fmt.Errorf("bad down %q (want always, A+F, or A+F/E)", s)
	}
	var d Down
	var err error
	if d.After, err = parseDuration(after); err != nil {
		return Down{}, err
	}
	forPart, every, flap := strings.Cut(rest, "/")
	if d.For, err = time.ParseDuration(forPart); err != nil {
		return Down{}, err
	}
	if d.For <= 0 {
		return Down{}, fmt.Errorf("down window %q must be positive", forPart)
	}
	if flap {
		if d.Every, err = time.ParseDuration(every); err != nil {
			return Down{}, err
		}
		if d.Every <= d.For {
			return Down{}, fmt.Errorf("down period %q must exceed the window %q", every, forPart)
		}
	}
	return d, nil
}

func parseRate(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if !(v >= 0 && v <= 1) { // NaN included
		return 0, fmt.Errorf("rate %v outside [0, 1]", v)
	}
	return v, nil
}

// parseDuration parses a non-negative Go duration (a negative delay
// would speed a request up).
func parseDuration(s string) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err == nil && d < 0 {
		err = fmt.Errorf("duration %v is negative", d)
	}
	return d, err
}

// String renders the profile as a canonical spec Parse accepts.
func (p Profile) String() string {
	if !p.Enabled() {
		return "off"
	}
	var parts []string
	add := func(key, val string) { parts = append(parts, key+"="+val) }
	add("seed", strconv.FormatUint(p.Seed, 10))
	if p.Window.Period > 0 {
		add("window", fmt.Sprintf("%d:%d", p.Window.Period, p.Window.Flaky))
	}
	switch {
	case p.Down.Always:
		add("down", "always")
	case p.Down.active():
		v := p.Down.After.String() + "+" + p.Down.For.String()
		if p.Down.Every > 0 {
			v += "/" + p.Down.Every.String()
		}
		add("down", v)
	}
	rate := func(key string, v float64) {
		if v > 0 {
			add(key, strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	dur := func(key string, d time.Duration) {
		if d > 0 {
			add(key, d.String())
		}
	}
	rate("manifest-error", p.Manifest.ErrorRate)
	dur("manifest-latency", p.Manifest.Latency)
	rate("tile-error", p.Tile.ErrorRate)
	rate("tile-abort", p.Tile.AbortRate)
	rate("tile-truncate", p.Tile.TruncateRate)
	rate("tile-stall", p.Tile.StallRate)
	dur("tile-stall-for", p.Tile.StallFor)
	dur("tile-latency", p.Tile.Latency)
	dur("tile-jitter", p.Tile.Jitter)
	rate("tile-throttle-bps", p.Tile.ThrottleBps)
	return strings.Join(parts, ",")
}
