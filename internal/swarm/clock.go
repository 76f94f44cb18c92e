package swarm

import "pano/internal/client"

// VirtualClock is the discrete-event session clock. It lives in
// internal/client, next to the Clock interface it implements, so that
// internal/sim can run sessions on it too.
type VirtualClock = client.VirtualClock

// NewVirtualClock returns a clock positioned startSec virtual seconds
// past the global epoch (the session's arrival time).
func NewVirtualClock(startSec float64) *VirtualClock { return client.NewVirtualClock(startSec) }
