package client

import "time"

// playout is a session's playout ledger: the one home of its buffer and
// of how its time splits into startup, playback and stall. It reads the
// session clock: time that passes — the manifest fetch, a chunk's
// decisions and download, a live-edge wait, a pacing idle — plays
// buffered media; what the buffer cannot cover is startup until the
// first chunk has landed, and a stall after. Every nanosecond counts
// once, on either clock: elapsed + buffer == startup + media + stall
// exactly, elapsed the clock's span.
type playout struct {
	at      time.Time     // the clock instant accounted up to
	buffer  time.Duration // media landed and not yet played
	elapsed time.Duration // time passed
	startup time.Duration // time passed before the first chunk landed, not covered by media
	media   time.Duration // media landed
	stall   time.Duration // time passed after the first chunk landed, not covered by media
	started bool          // the first chunk has landed
}

// read lets the time from at to clk's now go by, playing what the buffer
// holds, and returns the stall in it: the part the buffer could not
// cover, once the first chunk has landed (before, that part is startup).
func (p *playout) read(clk Clock) (stall time.Duration) {
	now := clk.Now()
	d := now.Sub(p.at)
	p.at = now
	dry := max(0, d-p.buffer)
	p.elapsed += d
	p.buffer = max(0, p.buffer-d)
	if !p.started {
		p.startup += dry
		return 0
	}
	p.stall += dry
	return dry
}

// land adds a chunk of media to the buffer and reports whether it is the
// first to land, the end of startup.
func (p *playout) land(chunk time.Duration) (first bool) {
	first = !p.started
	p.started = true
	p.media += chunk
	p.buffer += chunk
	return first
}

// idleTo is a pacing idle: when the buffer holds more than limit > 0,
// the session sleeps, playing the surplus, down to limit. at moves by the
// sleep returned; an overrun counts at the next reading.
func (p *playout) idleTo(limit time.Duration) (sleep time.Duration) {
	if limit > 0 && p.buffer > limit {
		sleep = p.buffer - limit
		p.elapsed += sleep
		p.buffer, p.at = limit, p.at.Add(sleep)
	}
	return sleep
}
