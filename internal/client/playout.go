package client

// playout is a session's playout ledger: the one home of its buffer and
// of how its time splits into startup, playback and stall. Time that
// passes — the manifest fetch, a chunk's download, a pacing idle, a wait
// at the live edge — plays buffered media; what the buffer cannot cover
// is startup until the first chunk has landed, and a stall after. Every
// second is counted once: elapsed + buffer = startup + media + stall.
type playout struct {
	buffer  float64 // media seconds landed and not yet played
	elapsed float64 // seconds passed
	startup float64 // seconds passed before the first chunk landed, not covered by media
	media   float64 // media seconds landed
	stall   float64 // seconds passed after the first chunk landed, not covered by media
	started bool    // the first chunk has landed
}

// pass lets sec seconds go by, playing what the buffer holds, and
// returns the stall in them: the part the buffer could not cover, once
// the first chunk has landed (before, that part is startup).
func (p *playout) pass(sec float64) (stall float64) {
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
// seconds, the session waits, playing the surplus, until it holds
// limit. It returns the idle.
func (p *playout) idleTo(limit float64) (idle float64) {
	if limit > 0 && p.buffer > limit {
		idle = p.buffer - limit
		p.elapsed += idle
		p.buffer = limit
	}
	return idle
}
