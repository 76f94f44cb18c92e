//go:build race

package edge

func init() { raceEnabled = true }
