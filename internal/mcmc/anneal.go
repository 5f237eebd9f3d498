package mcmc

import "math/rand"

// Annealer wraps a Proposer so the walk targets π(w)^β with an inverse
// temperature β that rises geometrically over time: at β = 1 this is
// ordinary posterior sampling, and as β grows the chain concentrates on
// modes, yielding approximate MAP states (maximum a-posteriori possible
// worlds). The proposal-bias correction is left unscaled, as in standard
// simulated annealing on a Metropolis-Hastings kernel.
type Annealer struct {
	Inner Proposer
	// Beta is the current inverse temperature; starts at Beta0.
	Beta float64
	// Growth multiplies Beta after every proposal (e.g. 1.0001).
	Growth float64
	// BetaMax caps the schedule.
	BetaMax float64
}

// NewAnnealer builds a geometric annealing schedule over p.
func NewAnnealer(p Proposer, beta0, growth, betaMax float64) *Annealer {
	if beta0 <= 0 {
		beta0 = 1
	}
	if growth < 1 {
		growth = 1
	}
	if betaMax < beta0 {
		betaMax = beta0
	}
	return &Annealer{Inner: p, Beta: beta0, Growth: growth, BetaMax: betaMax}
}

// Propose implements Proposer.
func (a *Annealer) Propose(rng *rand.Rand) Proposal {
	p := a.Inner.Propose(rng)
	p.LogScoreDelta *= a.Beta
	if a.Beta < a.BetaMax {
		a.Beta *= a.Growth
		if a.Beta > a.BetaMax {
			a.Beta = a.BetaMax
		}
	}
	return p
}

// Accept implements Proposer by committing the inner proposer's pending
// move.
func (a *Annealer) Accept() { a.Inner.Accept() }
