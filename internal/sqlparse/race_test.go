//go:build race

package sqlparse

// The race detector makes sync.Pool drop entries at random, so fmt's
// printer pool — and with it any allocation count through the planner's
// fmt calls — is not deterministic in race builds.
func init() { raceEnabled = true }
