//go:build race

package exp

// The race detector slows bench-scale training down too far to be worth
// its check in race builds.
func init() { raceEnabled = true }
