// Package learn implements SampleRank (Wick et al., 2009), the training
// method the paper uses to estimate factor-graph parameters (Section 5.2).
// SampleRank performs perceptron-style updates on pairs of consecutive
// MCMC states whenever the model's ranking of the pair disagrees with a
// ground-truth objective, learning weights as a byproduct of the same
// Metropolis-Hastings walk used for inference.
package learn

import (
	"math"
	"math/rand"
)

// Weights is the dense parameter vector θ, indexed by a feature index the
// model defines. It is the one copy of the weights: SampleRank trains it
// in place and the model scores by reading it. Indexes past its end are
// unset (zero) until a Set or Update grows it.
type Weights []float64

// Get returns θ_i (zero when unset).
func (w Weights) Get(i int) float64 {
	if i < len(w) {
		return w[i]
	}
	return 0
}

// Set assigns θ_i.
func (w *Weights) Set(i int, v float64) {
	w.grow(i)
	(*w)[i] = v
}

// grow extends w with zeros so that index i exists.
func (w *Weights) grow(i int) {
	if i >= len(*w) {
		*w = append(*w, make([]float64, i+1-len(*w))...)
	}
}

// Dot returns θ·d.
func (w Weights) Dot(d Delta) float64 {
	var s float64
	for _, f := range d {
		s += f.V * w.Get(f.I)
	}
	return s
}

// Update performs θ += scale×d.
func (w *Weights) Update(d Delta, scale float64) {
	for _, f := range d {
		w.grow(f.I)
		(*w)[f.I] += scale * f.V
	}
}

// Feature is one nonzero entry of a Delta: feature index I has value V.
type Feature struct {
	I int
	V float64
}

// Delta is a sparse feature vector — for training, φ(w')−φ(w) — held as
// (index, value) pairs with distinct indexes and no zero values. A model's
// delta touches a handful of features, so Add finds an index by linear
// scan, and one buffer is reused step after step without allocating.
type Delta []Feature

// Add accumulates v onto feature i; an entry whose value reaches zero is
// dropped.
func (d *Delta) Add(i int, v float64) {
	fs := *d
	for j := range fs {
		if fs[j].I == i {
			if fs[j].V += v; fs[j].V == 0 {
				*d = append(fs[:j], fs[j+1:]...)
			}
			return
		}
	}
	if v != 0 {
		*d = append(fs, Feature{i, v})
	}
}

// Reset empties d, keeping its storage.
func (d *Delta) Reset() { *d = (*d)[:0] }

// Proposer draws training proposals under the same two-phase protocol as
// mcmc.Proposer: ProposeRank remembers the hypothesized modification as
// the pending move, fills d (which it receives empty) with its feature
// delta φ(w')−φ(w), and returns the change in the ground-truth objective
// (for NER, per-token accuracy against gold labels); Accept commits the
// most recent move, at most once.
type Proposer interface {
	ProposeRank(rng *rand.Rand, d *Delta) (objectiveDelta float64)
	Accept()
}

// WalkStrategy selects how the training walk moves between states.
type WalkStrategy uint8

// Walk strategies. WalkByModel follows the usual MH acceptance under the
// evolving model; WalkByObjective greedily follows the ground-truth
// objective (faster convergence, used for the short training runs of the
// paper).
const (
	WalkByModel WalkStrategy = iota
	WalkByObjective
)

// SampleRank trains weights along an MCMC walk.
type SampleRank struct {
	Weights *Weights
	Rate    float64
	Walk    WalkStrategy

	proposer Proposer
	rng      *rand.Rand
	delta    Delta // the one feature-delta buffer every step reuses
	steps    int
	updates  int
}

// NewSampleRank builds a trainer with learning rate rate.
func NewSampleRank(w *Weights, p Proposer, rate float64, seed int64) *SampleRank {
	return &SampleRank{Weights: w, Rate: rate, proposer: p, rng: rand.New(rand.NewSource(seed))}
}

// Step considers one proposal: if the model ranks the pair of worlds
// differently from the objective, the weights receive a perceptron update
// toward the objectively better world. Returns whether an update occurred.
func (sr *SampleRank) Step() bool {
	sr.delta.Reset()
	o := sr.proposer.ProposeRank(sr.rng, &sr.delta)
	sr.steps++
	m := sr.Weights.Dot(sr.delta) // model preference for w'
	updated := false
	switch {
	case o > 0 && m <= 0:
		sr.Weights.Update(sr.delta, sr.Rate)
		updated = true
	case o < 0 && m >= 0:
		sr.Weights.Update(sr.delta, -sr.Rate)
		updated = true
	}
	if updated {
		sr.updates++
	}

	accept := false
	switch sr.Walk {
	case WalkByObjective:
		accept = o > 0 || (o == 0 && sr.rng.Float64() < 0.5)
	default:
		accept = m >= 0 || sr.rng.Float64() < math.Exp(m)
	}
	if accept {
		sr.proposer.Accept()
	}
	return updated
}

// Train runs n steps.
func (sr *SampleRank) Train(n int) {
	for i := 0; i < n; i++ {
		sr.Step()
	}
}

// Steps returns the number of proposals consumed.
func (sr *SampleRank) Steps() int { return sr.steps }

// Updates returns the number of weight updates performed.
func (sr *SampleRank) Updates() int { return sr.updates }
