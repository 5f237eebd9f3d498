package ie

import (
	"fmt"
	"math"
)

// Exact inference for the *linear-chain* special case (UseSkip == false).
// The paper's point is that skip edges make exact inference intractable;
// for the plain chain, dynamic programming is exact and serves both as a
// correctness oracle for the MCMC sampler and as the classical baseline
// (Lafferty et al.'s linear-chain CRF) that skip chains outperform.

// forward returns the linear-chain model's forward log-messages over ld,
// alpha[i][l] summing every labeling of 0..i that ends in l. It refuses a
// skip-chain model, for which the result would be wrong.
func (m *Model) forward(ld *LabeledDoc) ([][NumLabels]float64, error) {
	if m.UseSkip {
		return nil, fmt.Errorf("ie: exact chain inference requires a linear-chain model (UseSkip=false)")
	}
	t := m.theta()
	alpha := make([][NumLabels]float64, ld.Len())
	var terms [NumLabels]float64
	for i := range alpha {
		c := ld.ix.code(i)
		for l := Label(0); l < NumLabels; l++ {
			if i == 0 {
				alpha[0][l] = t.nodeScore(ld.ix, c, l)
				continue
			}
			for p := Label(0); p < NumLabels; p++ {
				terms[p] = alpha[i-1][p] + t.trans(p, l)
			}
			alpha[i][l] = t.nodeScore(ld.ix, c, l) + logSumExp(terms[:])
		}
	}
	return alpha, nil
}

// ChainMarginals computes the exact per-token label marginals of the
// linear-chain model by forward-backward.
func (m *Model) ChainMarginals(ld *LabeledDoc) ([][NumLabels]float64, error) {
	alpha, err := m.forward(ld)
	if err != nil || len(alpha) == 0 {
		return nil, err
	}
	t, n := m.theta(), len(alpha)
	beta := make([][NumLabels]float64, n)
	var terms [NumLabels]float64
	for i := n - 2; i >= 0; i-- {
		c := ld.ix.code(i + 1)
		for l := Label(0); l < NumLabels; l++ {
			for nx := Label(0); nx < NumLabels; nx++ {
				terms[nx] = t.trans(l, nx) + t.nodeScore(ld.ix, c, nx) + beta[i+1][nx]
			}
			beta[i][l] = logSumExp(terms[:])
		}
	}
	out := make([][NumLabels]float64, n)
	for i := 0; i < n; i++ {
		for l := Label(0); l < NumLabels; l++ {
			terms[l] = alpha[i][l] + beta[i][l]
		}
		logZ := logSumExp(terms[:])
		for l := Label(0); l < NumLabels; l++ {
			out[i][l] = math.Exp(terms[l] - logZ)
		}
	}
	return out, nil
}

// ChainLogZ returns the exact log partition function of the linear-chain
// model for one document.
func (m *Model) ChainLogZ(ld *LabeledDoc) (float64, error) {
	alpha, err := m.forward(ld)
	if err != nil || len(alpha) == 0 {
		return 0, err
	}
	return logSumExp(alpha[len(alpha)-1][:]), nil
}

// logSumExp returns log Σ exp(x) stably.
func logSumExp(xs []float64) float64 {
	max := math.Inf(-1)
	for _, x := range xs {
		if x > max {
			max = x
		}
	}
	if math.IsInf(max, -1) {
		return max
	}
	var s float64
	for _, x := range xs {
		s += math.Exp(x - max)
	}
	return max + math.Log(s)
}
