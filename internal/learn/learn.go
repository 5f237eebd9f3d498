// Package learn implements SampleRank (Wick et al., 2009), the training
// method the paper uses to estimate factor-graph parameters "in a matter
// of minutes" (Section 5.2). SampleRank performs perceptron-style updates
// on pairs of consecutive MCMC states whenever the model's ranking of the
// pair disagrees with a ground-truth objective, learning weights as a
// byproduct of the same Metropolis-Hastings walk used for inference.
package learn

import (
	"math"
	"math/rand"
)

// FeatureVector is a sparse map from feature keys to values. Feature keys
// are opaque 64-bit identifiers chosen by the model (package ie packs
// template and argument indexes into them).
type FeatureVector map[uint64]float64

// Add accumulates v onto feature k.
func (f FeatureVector) Add(k uint64, v float64) {
	if nv := f[k] + v; nv == 0 {
		delete(f, k)
	} else {
		f[k] = nv
	}
}

// AddAll accumulates scale×o into f.
func (f FeatureVector) AddAll(o FeatureVector, scale float64) {
	for k, v := range o {
		f.Add(k, scale*v)
	}
}

// Weights is a sparse parameter vector θ: the representation SampleRank
// trains. Models that score on a hot path compile it into their own dense
// tables and use Version to notice that it moved underneath them.
type Weights struct {
	W map[uint64]float64

	version uint64
}

// NewWeights returns an all-zero weight vector.
func NewWeights() *Weights { return &Weights{W: make(map[uint64]float64)} }

// Get returns θ_k (zero when unset).
func (w *Weights) Get(k uint64) float64 { return w.W[k] }

// Set assigns θ_k.
func (w *Weights) Set(k uint64, v float64) {
	w.W[k] = v
	w.version++
}

// Version counts the Set and Update calls so far. Writes that go straight
// to W are not counted.
func (w *Weights) Version() uint64 { return w.version }

// Dot returns θ·f.
func (w *Weights) Dot(f FeatureVector) float64 {
	var s float64
	for k, v := range f {
		s += v * w.W[k]
	}
	return s
}

// Update performs θ += scale×f.
func (w *Weights) Update(f FeatureVector, scale float64) {
	for k, v := range f {
		w.W[k] += scale * v
	}
	w.version++
}

// Clone returns an independent copy of the weights.
func (w *Weights) Clone() *Weights {
	c := NewWeights()
	for k, v := range w.W {
		c.W[k] = v
	}
	return c
}

// Proposal is one hypothesized world modification exposed for training:
// the sparse feature delta φ(w')−φ(w) and the change in the ground-truth
// objective (for NER, per-token accuracy against gold labels).
type Proposal struct {
	FeatureDelta   FeatureVector
	ObjectiveDelta float64
}

// Proposer draws training proposals under the same two-phase protocol as
// mcmc.Proposer: ProposeRank remembers the hypothesized modification as
// the pending move, Accept commits the most recent one, at most once.
type Proposer interface {
	ProposeRank(rng *rand.Rand) Proposal
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
	p := sr.proposer.ProposeRank(sr.rng)
	sr.steps++
	m := sr.Weights.Dot(p.FeatureDelta) // model preference for w'
	o := p.ObjectiveDelta
	updated := false
	switch {
	case o > 0 && m <= 0:
		sr.Weights.Update(p.FeatureDelta, sr.Rate)
		updated = true
	case o < 0 && m >= 0:
		sr.Weights.Update(p.FeatureDelta, -sr.Rate)
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
