//go:build race

package player

func init() { raceEnabled = true }
