// Package mcmc implements the Metropolis-Hastings random walk over
// possible worlds (Section 3.4 and Algorithm 2 of the paper). The sampler
// is agnostic to what a "world" is: proposers compute the log model-score
// delta of a hypothesized modification (touching only the factors whose
// arguments change) and commit it on acceptance. The normalization
// constant Z cancels in the acceptance ratio, which is what makes
// sampling tractable for models where computing Z is #P-hard.
//
// A step allocates nothing in this package: a Proposal is two floats
// returned by value, and the modification it stands for stays inside the
// proposer until the sampler calls Accept.
package mcmc

import (
	"fmt"
	"math"
	"math/rand"
)

// Proposal is the Metropolis-Hastings view of a hypothesized modification
// to the current world: the two log-ratios the acceptance test needs. The
// modification itself stays with the proposer that drew it.
type Proposal struct {
	// LogScoreDelta is log π(w') − log π(w), computed from the factors
	// adjacent to the changed variables only.
	LogScoreDelta float64
	// LogQRatio is log q(w|w') − log q(w'|w), the proposal-bias
	// correction. Zero for symmetric proposal distributions.
	LogQRatio float64
}

// Proposer draws proposals from the proposal distribution q(·|w)
// conditioned on the current world. Implementations must be
// constraint-preserving: they only propose worlds with π(w') > 0
// (Section 3.4's split-merge discussion).
//
// The protocol is two-phase. Propose hypothesizes a modification, scores
// it and remembers it as the pending move, leaving the world untouched;
// Accept commits the pending move of the most recent Propose. The sampler
// calls Accept at most once per Propose, and only when the proposal is
// accepted; a proposer whose pending move is a no-op (nothing to change,
// or nowhere to move) commits nothing.
type Proposer interface {
	Propose(rng *rand.Rand) Proposal
	Accept()
}

// Sampler runs the Metropolis-Hastings walk.
type Sampler struct {
	proposer Proposer
	rng      *rand.Rand

	steps    int64
	accepted int64
}

// NewSampler creates a sampler with a deterministic seed.
func NewSampler(p Proposer, seed int64) *Sampler {
	return &Sampler{proposer: p, rng: rand.New(rand.NewSource(seed))}
}

// Step performs one MH step and reports whether the proposal was accepted.
func (s *Sampler) Step() bool {
	p := s.proposer.Propose(s.rng)
	s.steps++
	// α = min(1, π(w')q(w|w') / π(w)q(w'|w)); computed in log space.
	logAlpha := p.LogScoreDelta + p.LogQRatio
	if logAlpha >= 0 || s.rng.Float64() < math.Exp(logAlpha) {
		s.proposer.Accept()
		s.accepted++
		return true
	}
	return false
}

// Run performs n MH steps (Algorithm 2's random walk).
func (s *Sampler) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// Steps returns the number of proposals considered.
func (s *Sampler) Steps() int64 { return s.steps }

// Accepted returns the number of accepted proposals.
func (s *Sampler) Accepted() int64 { return s.accepted }

// AcceptanceRate returns the fraction of proposals accepted so far.
func (s *Sampler) AcceptanceRate() float64 {
	if s.steps == 0 {
		return 0
	}
	return float64(s.accepted) / float64(s.steps)
}

// String summarizes the sampler state.
func (s *Sampler) String() string {
	return fmt.Sprintf("mcmc.Sampler{steps: %d, accepted: %d (%.1f%%)}",
		s.steps, s.accepted, 100*s.AcceptanceRate())
}
