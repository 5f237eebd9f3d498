package ie

import (
	"fmt"
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
// the document, writing it into ld.Labels.
func (m *Model) SampleChain(ld *LabeledDoc, rng *rand.Rand) error {
	if m.UseSkip {
		return fmt.Errorf("ie: SampleChain requires a linear-chain model (UseSkip=false)")
	}
	t, n := m.tables(), len(ld.Labels)
	if n == 0 {
		return nil
	}
	// Forward pass (same recursion as ChainMarginals).
	alpha := make([][NumLabels]float64, n)
	for l := Label(0); l < NumLabels; l++ {
		alpha[0][l] = t.nodeScore(ld, 0, l)
	}
	var terms [NumLabels]float64
	for i := 1; i < n; i++ {
		for l := Label(0); l < NumLabels; l++ {
			for p := Label(0); p < NumLabels; p++ {
				terms[p] = alpha[i-1][p] + t.trans[p][l]
			}
			alpha[i][l] = t.nodeScore(ld, i, l) + logSumExp(terms[:])
		}
	}
	// Backward sampling: y_n ~ α_n, then y_i ~ α_i(y) · ψ(y, y_{i+1}).
	ld.Labels[n-1] = sampleLog(rng, alpha[n-1][:])
	for i := n - 2; i >= 0; i-- {
		next := ld.Labels[i+1]
		for l := Label(0); l < NumLabels; l++ {
			terms[l] = alpha[i][l] + t.trans[l][next]
		}
		ld.Labels[i] = sampleLog(rng, terms[:])
	}
	return nil
}

// SampleCorpus regenerates every document of the tagger's corpus from the
// exact chain posterior: one full iid possible world.
func (t *Tagger) SampleCorpus(rng *rand.Rand) error {
	for d, ld := range t.Docs {
		saved := append([]Label{}, ld.Labels...)
		if err := t.Model.SampleChain(ld, rng); err != nil {
			return err
		}
		// Propagate to the database (and delta log) where bound.
		if t.bound {
			fresh := append([]Label{}, ld.Labels...)
			copy(ld.Labels, saved)
			for i, l := range fresh {
				if ld.Labels[i] != l {
					t.apply(d, i, l)
				}
			}
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

// GibbsStep resamples one uniformly chosen label variable from its exact
// local conditional distribution (a Gibbs kernel: the acceptance
// probability is identically one). Unlike FFBS this works for the skip
// chain too, because the local conditional only needs the factors
// touching the variable. Returns the document and position touched.
func (t *Tagger) GibbsStep(rng *rand.Rand) (doc, pos int) {
	d, i := t.pick(rng)
	ld := t.Docs[d]
	var logw [NumLabels]float64
	old := ld.Labels[i]
	tab := t.Model.tables()
	for l := Label(0); l < NumLabels; l++ {
		logw[l] = t.Model.localScore(tab, ld, i, l)
	}
	newLabel := sampleLog(rng, logw[:])
	if newLabel != old {
		t.apply(d, i, newLabel)
	}
	return d, i
}
