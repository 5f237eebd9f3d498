//go:build race

package ie

// The race detector adds allocations of its own, so allocation counts are
// not reproducible in race builds.
func init() { raceEnabled = true }
