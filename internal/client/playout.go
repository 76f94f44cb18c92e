package client

import "time"

// playout is a session's playout ledger: the one home of its buffer and
// of how its time splits into startup, playback and stall. It reads the
// session clock: time that passes — the manifest fetch, a chunk's
// decisions and download, a live-edge wait, a pacing idle — plays
// buffered media; what the buffer cannot cover is startup until the
// first chunk has landed, and a stall after. Every second counts once:
// elapsed + buffer = startup + media + stall, elapsed the clock's span.
type playout struct {
	at      time.Time // the clock instant accounted up to
	buffer  float64   // media seconds landed and not yet played
	elapsed float64   // seconds passed
	startup float64   // seconds passed before the first chunk landed, not covered by media
	media   float64   // media seconds landed
	stall   float64   // seconds passed after the first chunk landed, not covered by media
	started bool      // the first chunk has landed
}

// read lets the time from at to clk's now go by, playing what the buffer
// holds, and returns the stall in it: the part the buffer could not
// cover, once the first chunk has landed (before, that part is startup).
func (p *playout) read(clk Clock) (stall float64) {
	now := clk.Now()
	sec := now.Sub(p.at).Seconds()
	p.at = now
	dry := max(0, sec-p.buffer)
	p.elapsed += sec
	p.buffer = max(0, p.buffer-sec)
	if !p.started {
		p.startup += dry
		return 0
	}
	p.stall += dry
	return dry
}

// land adds a chunk of sec media seconds to the buffer and reports
// whether it is the first to land, the end of startup.
func (p *playout) land(sec float64) (first bool) {
	first = !p.started
	p.started = true
	p.media += sec
	p.buffer += sec
	return first
}

// idleTo is a pacing idle: when the buffer holds more than limit > 0
// seconds, the session sleeps, playing the surplus (counted exactly),
// down to limit. at moves by the sleep returned; an overrun counts later.
func (p *playout) idleTo(limit float64) (sleep time.Duration) {
	if limit > 0 && p.buffer > limit {
		p.elapsed += p.buffer - limit
		sleep = time.Duration((p.buffer - limit) * float64(time.Second))
		p.buffer, p.at = limit, p.at.Add(sleep)
	}
	return sleep
}
