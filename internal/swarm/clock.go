package swarm

import "pano/internal/client"

// VirtualClock is client.VirtualClock. The package itself uses the
// client's name; this alias and NewVirtualClock remain only for their
// last caller, benchmark/swarm.go, and go when it moves to the client's.
type VirtualClock = client.VirtualClock

// NewVirtualClock is client.NewVirtualClock, kept for the same caller.
func NewVirtualClock(startSec float64) *VirtualClock { return client.NewVirtualClock(startSec) }
