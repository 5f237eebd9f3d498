package mcmc_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"factordb/internal/factor"
	"factordb/internal/mcmc"
	"factordb/internal/relstore"
)

// walker serves g over a one-column world whose rows all start at value
// 0 and returns a chain's proposer and a reader of the assignment the
// chain's world holds, which reuses its slice between calls.
func walker(t *testing.T, g *factor.Graph) (*factor.Proposer, func() []int) {
	t.Helper()
	db := relstore.NewDB()
	rel := db.MustCreate(relstore.MustSchema("V", relstore.Column{Name: "VALUE", Type: relstore.TString}))
	for _, v := range g.Vars {
		if _, err := rel.Insert(relstore.Tuple{relstore.String(v.Dom.Values[0])}); err != nil {
			t.Fatal(err)
		}
	}
	m, err := factor.NewModel(g, db, "V", 0)
	if err != nil {
		t.Fatal(err)
	}
	log, p, err := m.NewChainWorld(0)
	if err != nil {
		t.Fatal(err)
	}
	chainRel, _ := log.DB().Relation("V")
	a := make([]int, len(g.Vars))
	return p.(*factor.Proposer), func() []int {
		for i, v := range g.Vars {
			val, _ := chainRel.GetCol(relstore.RowID(i), 0)
			a[i] = v.Dom.Index(val.AsString())
		}
		return a
	}
}

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

// TestMHConvergesToExactMarginals is the core correctness test: the
// empirical distribution of the MH walk must converge to the exact
// marginals obtained by enumeration.
func TestMHConvergesToExactMarginals(t *testing.T) {
	g := loopyGraph(6, 11)
	exact, err := g.ExactMarginals()
	if err != nil {
		t.Fatal(err)
	}
	p, assign := walker(t, g)
	s := mcmc.NewSampler(p, 17)
	counts := make([][2]float64, len(g.Vars))
	// Burn-in, then sample with thinning.
	s.Run(2000)
	const samples = 60000
	for i := 0; i < samples; i++ {
		s.Run(5)
		for v, val := range assign() {
			counts[v][val]++
		}
	}
	worst := 0.0
	for v := range exact {
		for val := range exact[v] {
			worst = math.Max(worst, math.Abs(counts[v][val]/samples-exact[v][val]))
		}
	}
	if worst > 0.02 {
		t.Errorf("max marginal error = %.4f, want <= 0.02", worst)
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
	p, assign := walker(t, g) // starts in an agreeing state (all zero)
	s := mcmc.NewSampler(p, 5)
	for i := 0; i < 5000; i++ {
		s.Step()
		if a := assign(); a[0] != a[1] {
			t.Fatal("MH accepted a constraint-violating world")
		}
	}
}

func TestSamplerStats(t *testing.T) {
	g := loopyGraph(4, 3)
	p, _ := walker(t, g)
	s := mcmc.NewSampler(p, 7)
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
		p, assign := walker(t, loopyGraph(5, 21))
		mcmc.NewSampler(p, 99).Run(3000)
		return assign()
	}
	if !slices.Equal(run(), run()) {
		t.Fatal("same seed produced different walks")
	}
}
