//go:build race

package store_test

func init() { raceEnabled = true }
