//go:build race

package ivm_test

// The race detector adds allocations of its own, so allocation counts and
// bytes are not reproducible in race builds.
func init() { raceEnabled = true }
