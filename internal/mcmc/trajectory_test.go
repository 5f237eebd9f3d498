package mcmc

import (
	"testing"

	"factordb/internal/factor"
	"factordb/internal/mcmc/mcmctest"
)

func checkGraphWalk(t *testing.T, name string, g *factor.Graph, s *Sampler) {
	t.Helper()
	h := mcmctest.NewHash()
	for _, v := range g.Assignment() {
		h.Int(v)
	}
	mcmctest.Check(t, name, h, s.Steps(), s.Accepted())
}

// TestTrajectoryGraphProposer pins the single-variable walk over an
// explicit factor graph.
func TestTrajectoryGraphProposer(t *testing.T) {
	g := loopyGraph(24, 71)
	s := NewSampler(&GraphProposer{G: g}, 73)
	s.Run(5000)
	checkGraphWalk(t, "graph", g, s)
}
