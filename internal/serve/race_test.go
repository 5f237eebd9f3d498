//go:build race

package serve

// The race detector makes sync.Pool drop entries at random, so fmt's
// printer pool — and with it any allocation count through fmt — is not
// deterministic in race builds.
func init() { raceEnabled = true }
