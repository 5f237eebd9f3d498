package mcmc_test

import (
	"testing"

	"factordb/internal/mcmc"
	"factordb/internal/mcmc/mcmctest"
)

// TestTrajectoryGraphProposer pins the single-variable walk over an
// explicit factor graph.
func TestTrajectoryGraphProposer(t *testing.T) {
	p, assign := walker(t, loopyGraph(24, 71))
	s := mcmc.NewSampler(p, 73)
	s.Run(5000)
	h := mcmctest.NewHash()
	for _, v := range assign() {
		h.Int(v)
	}
	mcmctest.Check(t, "graph", h, s.Steps(), s.Accepted())
}
