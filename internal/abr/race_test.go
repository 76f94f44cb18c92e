//go:build race

package abr

func init() { raceEnabled = true }
