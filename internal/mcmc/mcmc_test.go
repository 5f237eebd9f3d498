package mcmc

import (
	"math"
	"math/rand"
	"testing"
)

// biasedProposer walks one binary variable under a flat score with an
// intentionally biased q; the LogQRatio correction must remove the bias.
type biasedProposer struct {
	val, newVal int // current value, pending move
}

func (p *biasedProposer) Propose(rng *rand.Rand) Proposal {
	// Propose 1 with prob 0.9, 0 with prob 0.1.
	var newVal int
	if rng.Float64() < 0.9 {
		newVal = 1
	}
	qForward := 0.1
	if newVal == 1 {
		qForward = 0.9
	}
	qBackward := 0.1
	if p.val == 1 {
		qBackward = 0.9
	}
	p.newVal = newVal
	return Proposal{LogQRatio: math.Log(qBackward) - math.Log(qForward)}
}

func (p *biasedProposer) Accept() { p.val = p.newVal }

func TestLogQRatioCorrection(t *testing.T) {
	// A single unbiased binary variable sampled with a biased proposer:
	// the stationary distribution must still be uniform thanks to the
	// Hastings correction.
	p := &biasedProposer{}
	s := NewSampler(p, 31)
	s.Run(500)
	const n = 200000
	ones := 0
	for i := 0; i < n; i++ {
		s.Step()
		ones += p.val
	}
	if p1 := float64(ones) / n; math.Abs(p1-0.5) > 0.01 {
		t.Errorf("P(1) = %.4f, want 0.5 (Hastings correction failed)", p1)
	}
}

// countingProposer proposes a fixed score delta and counts commits.
type countingProposer struct {
	delta   float64
	commits int
}

func (p *countingProposer) Propose(*rand.Rand) Proposal { return Proposal{LogScoreDelta: p.delta} }
func (p *countingProposer) Accept()                     { p.commits++ }

// TestAcceptCalledOncePerAcceptedProposal pins the two-phase contract:
// Accept runs exactly once for every accepted proposal and never for a
// rejected one.
func TestAcceptCalledOncePerAcceptedProposal(t *testing.T) {
	up := &countingProposer{delta: 1}
	s := NewSampler(up, 1)
	s.Run(10)
	if s.Accepted() != 10 || up.commits != 10 {
		t.Errorf("uphill: Accepted = %d, commits = %d, want 10 and 10", s.Accepted(), up.commits)
	}
	down := &countingProposer{delta: math.Inf(-1)}
	s = NewSampler(down, 1)
	s.Run(10)
	if s.Accepted() != 0 || down.commits != 0 {
		t.Errorf("impossible: Accepted = %d, commits = %d, want 0 and 0", s.Accepted(), down.commits)
	}
}
