//go:build race

package factordb

// The race detector makes sync.Pool drop entries at random, so counts
// through pooled encoders and fmt printers are not deterministic.
func init() { raceEnabled = true }
