package mcmc

import (
	"math"
	"math/rand"
	"testing"

	"factordb/internal/factor"
)

// loopyGraph builds a small non-tree graph (a cycle plus chords), the kind
// of structure where belief propagation fails but MCMC still applies.
func loopyGraph(n int, seed int64) *factor.Graph {
	rng := rand.New(rand.NewSource(seed))
	dom := factor.NewDomain("bit", "0", "1")
	g := factor.NewGraph()
	vars := make([]*factor.Var, n)
	for i := range vars {
		vars[i] = g.AddVar("y", dom)
		w := 0.8 * rng.NormFloat64()
		g.MustAddFactor("bias", func(vals []int) float64 {
			if vals[0] == 1 {
				return w
			}
			return 0
		}, vars[i])
	}
	pair := func(a, b int) {
		w := 0.6 * rng.NormFloat64()
		g.MustAddFactor("pair", func(vals []int) float64 {
			if vals[0] == vals[1] {
				return w
			}
			return -w
		}, vars[a], vars[b])
	}
	for i := 0; i < n; i++ {
		pair(i, (i+1)%n) // cycle
	}
	pair(0, n/2) // chord: breaks tree structure like the skip edges
	return g
}

func maxMarginalError(got, want [][]float64) float64 {
	worst := 0.0
	for i := range want {
		for j := range want[i] {
			if d := math.Abs(got[i][j] - want[i][j]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// TestMHConvergesToExactMarginals is the core correctness test: the
// empirical distribution of the MH walk must converge to the exact
// marginals obtained by enumeration.
func TestMHConvergesToExactMarginals(t *testing.T) {
	g := loopyGraph(6, 11)
	exact, err := g.ExactMarginals()
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(&GraphProposer{G: g}, 17)
	counter := NewMarginalCounter(g)
	// Burn-in, then sample with thinning.
	s.Run(2000)
	for i := 0; i < 60000; i++ {
		s.Run(5)
		counter.Observe()
	}
	if got := maxMarginalError(counter.Marginals(), exact); got > 0.02 {
		t.Errorf("max marginal error = %.4f, want <= 0.02", got)
	}
}

func TestMHRespectsHardConstraints(t *testing.T) {
	// Two variables with a -Inf factor on disagreement: the walk must
	// never record a disagreeing state after leaving one.
	dom := factor.NewDomain("bit", "0", "1")
	g := factor.NewGraph()
	a := g.AddVar("a", dom)
	b := g.AddVar("b", dom)
	g.MustAddFactor("eq", func(vals []int) float64 {
		if vals[0] == vals[1] {
			return 0
		}
		return math.Inf(-1)
	}, a, b)
	s := NewSampler(&GraphProposer{G: g}, 5)
	// Start in an agreeing state.
	a.Val, b.Val = 0, 0
	for i := 0; i < 5000; i++ {
		s.Step()
		if a.Val != b.Val {
			t.Fatal("MH accepted a constraint-violating world")
		}
	}
}

func TestSamplerStats(t *testing.T) {
	g := loopyGraph(4, 3)
	s := NewSampler(&GraphProposer{G: g}, 7)
	if s.AcceptanceRate() != 0 {
		t.Error("acceptance rate before any steps should be 0")
	}
	s.Run(1000)
	if s.Steps() != 1000 {
		t.Errorf("Steps = %d", s.Steps())
	}
	if s.Accepted() == 0 || s.Accepted() > 1000 {
		t.Errorf("Accepted = %d out of 1000", s.Accepted())
	}
	rate := s.AcceptanceRate()
	if rate <= 0 || rate > 1 {
		t.Errorf("AcceptanceRate = %v", rate)
	}
	if s.String() == "" {
		t.Error("String should be non-empty")
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	run := func() []int {
		g := loopyGraph(5, 21)
		s := NewSampler(&GraphProposer{G: g}, 99)
		s.Run(3000)
		return g.Assignment()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different walks")
		}
	}
}

// asymmetricProposer always proposes value 1 for a fixed variable with an
// intentionally biased q; the LogQRatio correction must remove the bias.
type biasedProposer struct {
	g *factor.Graph
	v *factor.Var

	newVal int // pending move
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
	if p.v.Val == 1 {
		qBackward = 0.9
	}
	p.newVal = newVal
	return Proposal{
		LogScoreDelta: p.g.ScoreDelta(p.v, newVal),
		LogQRatio:     math.Log(qBackward) - math.Log(qForward),
	}
}

func (p *biasedProposer) Accept() { p.v.Val = p.newVal }

func TestLogQRatioCorrection(t *testing.T) {
	// A single unbiased binary variable sampled with a biased proposer:
	// the stationary distribution must still be uniform thanks to the
	// Hastings correction.
	dom := factor.NewDomain("bit", "0", "1")
	g := factor.NewGraph()
	v := g.AddVar("v", dom)
	g.MustAddFactor("flat", func([]int) float64 { return 0 }, v)
	s := NewSampler(&biasedProposer{g: g, v: v}, 31)
	counter := NewMarginalCounter(g)
	s.Run(500)
	for i := 0; i < 200000; i++ {
		s.Step()
		counter.Observe()
	}
	m := counter.Marginals()
	if math.Abs(m[0][1]-0.5) > 0.01 {
		t.Errorf("P(1) = %.4f, want 0.5 (Hastings correction failed)", m[0][1])
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
