package abr

// ReferenceCost is the cost of the optimum as the reference search run
// uncapped finds it, for the external tests: they drive whole sessions,
// and the packages that run sessions import this one.
func ReferenceCost(tiles []TileChoice, budget float64) float64 {
	return TotalCost(tiles, referencePruned(tiles, budget, uncapped).levels)
}
