//go:build !race

package serve

// raceEnabled reports a -race build. The race detector perturbs
// allocation counts, so exact allocation pins skip under it.
const raceEnabled = false
