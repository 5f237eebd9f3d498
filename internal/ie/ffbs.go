package ie

import (
	"math"
	"math/rand"
)

// Forward-filtering backward-sampling (FFBS): draws an exact independent
// sample from the linear-chain posterior P(y | x). This is the
// "generative Monte Carlo" regime of MCDB that the paper contrasts with
// MCMC (Section 2): every sample regenerates an entire world from
// scratch, at per-document cost O(n·L²), instead of hypothesizing a
// local modification at O(1). The benchmark suite uses it as the honest
// iid baseline for the linear-chain model (no such sampler exists for
// the skip chain — computing its normalizer is #P-hard, which is exactly
// the paper's point).

// SampleChain draws one exact sample from the linear-chain posterior for
// the document and writes it into its tagger's world, last position
// first.
func (m *Model) SampleChain(ld *LabeledDoc, rng *rand.Rand) error {
	alpha, err := m.forward(ld)
	if err != nil || len(alpha) == 0 {
		return err
	}
	t, n := m.theta(), len(alpha)
	var terms [NumLabels]float64
	// Backward sampling: y_n ~ α_n, then y_i ~ α_i(y) · ψ(y, y_{i+1}).
	next := sampleLog(rng, alpha[n-1][:])
	ld.set(n-1, next)
	for i := n - 2; i >= 0; i-- {
		for l := Label(0); l < NumLabels; l++ {
			terms[l] = alpha[i][l] + t.trans(l, next)
		}
		next = sampleLog(rng, terms[:])
		ld.set(i, next)
	}
	return nil
}

// SampleCorpus regenerates every document of the tagger's world from the
// exact chain posterior: one full iid possible world.
func (t *Tagger) SampleCorpus(rng *rand.Rand) error {
	for _, ld := range t.Docs {
		if err := t.Model.SampleChain(ld, rng); err != nil {
			return err
		}
	}
	return nil
}

// sampleLog draws an index from unnormalized log weights.
func sampleLog(rng *rand.Rand, logw []float64) Label {
	max := math.Inf(-1)
	for _, w := range logw {
		if w > max {
			max = w
		}
	}
	var total float64
	var probs [NumLabels]float64
	for i, w := range logw {
		probs[i] = math.Exp(w - max)
		total += probs[i]
	}
	u := rng.Float64() * total
	for i, p := range probs {
		u -= p
		if u < 0 {
			return Label(i)
		}
	}
	return Label(len(logw) - 1)
}
