package mcmc

import (
	"math/rand"

	"factordb/internal/factor"
)

// GraphProposer is the canonical single-variable random-walk proposal over
// an explicit factor graph: pick a hidden variable uniformly at random,
// then pick a new value for it uniformly from its domain. This mirrors the
// paper's NER proposal distribution (Section 5.1) and is symmetric, so the
// proposal ratio q(w|w')/q(w'|w) is 1.
type GraphProposer struct {
	G *factor.Graph

	// The pending move: variable v takes value newVal.
	v      *factor.Var
	newVal int
}

// Propose implements Proposer.
func (p *GraphProposer) Propose(rng *rand.Rand) Proposal {
	p.v = p.G.Vars[rng.Intn(len(p.G.Vars))]
	p.newVal = rng.Intn(p.v.Dom.Size())
	return Proposal{LogScoreDelta: p.G.ScoreDelta(p.v, p.newVal)}
}

// Accept implements Proposer.
func (p *GraphProposer) Accept() { p.v.Val = p.newVal }

// MarginalCounter accumulates empirical marginals over an explicit graph,
// used in tests to compare the sampler against exact enumeration.
type MarginalCounter struct {
	g      *factor.Graph
	counts [][]float64
	n      float64
}

// NewMarginalCounter prepares counters for all variables of g.
func NewMarginalCounter(g *factor.Graph) *MarginalCounter {
	c := &MarginalCounter{g: g, counts: make([][]float64, len(g.Vars))}
	for i, v := range g.Vars {
		c.counts[i] = make([]float64, v.Dom.Size())
	}
	return c
}

// Observe records the graph's current assignment as one sample.
func (c *MarginalCounter) Observe() {
	for i, v := range c.g.Vars {
		c.counts[i][v.Val]++
	}
	c.n++
}

// Marginals returns the empirical marginal distributions.
func (c *MarginalCounter) Marginals() [][]float64 {
	out := make([][]float64, len(c.counts))
	for i, row := range c.counts {
		out[i] = make([]float64, len(row))
		for j, x := range row {
			if c.n > 0 {
				out[i][j] = x / c.n
			}
		}
	}
	return out
}
