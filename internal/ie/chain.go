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

// ChainMarginals computes the exact per-token label marginals of the
// linear-chain model by forward-backward. It refuses to run on a
// skip-chain model, where the result would be wrong.
func (m *Model) ChainMarginals(ld *LabeledDoc) ([][NumLabels]float64, error) {
	if m.UseSkip {
		return nil, fmt.Errorf("ie: ChainMarginals requires a linear-chain model (UseSkip=false)")
	}
	t, n := m.tables(), len(ld.Labels)
	if n == 0 {
		return nil, nil
	}
	alpha := make([][NumLabels]float64, n)
	beta := make([][NumLabels]float64, n)

	for l := Label(0); l < NumLabels; l++ {
		alpha[0][l] = t.nodeScore(ld, 0, l)
		beta[n-1][l] = 0
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
	for i := n - 2; i >= 0; i-- {
		for l := Label(0); l < NumLabels; l++ {
			for nx := Label(0); nx < NumLabels; nx++ {
				terms[nx] = t.trans[l][nx] + t.nodeScore(ld, i+1, nx) + beta[i+1][nx]
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
	if m.UseSkip {
		return 0, fmt.Errorf("ie: ChainLogZ requires a linear-chain model (UseSkip=false)")
	}
	t, n := m.tables(), len(ld.Labels)
	if n == 0 {
		return 0, nil
	}
	var prev, cur [NumLabels]float64
	for l := Label(0); l < NumLabels; l++ {
		prev[l] = t.nodeScore(ld, 0, l)
	}
	var terms [NumLabels]float64
	for i := 1; i < n; i++ {
		for l := Label(0); l < NumLabels; l++ {
			for p := Label(0); p < NumLabels; p++ {
				terms[p] = prev[p] + t.trans[p][l]
			}
			cur[l] = t.nodeScore(ld, i, l) + logSumExp(terms[:])
		}
		prev = cur
	}
	return logSumExp(prev[:]), nil
}

// ViterbiDecode returns the exact MAP label sequence of the linear-chain
// model for one document, with its unnormalized log score.
func (m *Model) ViterbiDecode(ld *LabeledDoc) ([]Label, float64, error) {
	if m.UseSkip {
		return nil, 0, fmt.Errorf("ie: ViterbiDecode requires a linear-chain model (UseSkip=false)")
	}
	t, n := m.tables(), len(ld.Labels)
	if n == 0 {
		return nil, 0, nil
	}
	delta := make([][NumLabels]float64, n)
	back := make([][NumLabels]Label, n)
	for l := Label(0); l < NumLabels; l++ {
		delta[0][l] = t.nodeScore(ld, 0, l)
	}
	for i := 1; i < n; i++ {
		for l := Label(0); l < NumLabels; l++ {
			best := math.Inf(-1)
			var argBest Label
			for p := Label(0); p < NumLabels; p++ {
				s := delta[i-1][p] + t.trans[p][l]
				if s > best {
					best, argBest = s, p
				}
			}
			delta[i][l] = best + t.nodeScore(ld, i, l)
			back[i][l] = argBest
		}
	}
	bestFinal := math.Inf(-1)
	var lab Label
	for l := Label(0); l < NumLabels; l++ {
		if delta[n-1][l] > bestFinal {
			bestFinal, lab = delta[n-1][l], l
		}
	}
	seq := make([]Label, n)
	seq[n-1] = lab
	for i := n - 1; i > 0; i-- {
		lab = back[i][lab]
		seq[i-1] = lab
	}
	return seq, bestFinal, nil
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
