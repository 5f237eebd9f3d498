package ie

import (
	"math"
	"math/rand"
	"testing"

	"factordb/internal/factor"
	"factordb/internal/mcmc"
)

// tinyChainSetup builds a short doc and a linear-chain model with random
// weights on every feature that can fire.
func tinyChainSetup(t *testing.T, words []string, seed int64) (*Model, *LabeledDoc) {
	t.Helper()
	doc := &Doc{ID: 0}
	for _, w := range words {
		doc.Tokens = append(doc.Tokens, Token{Str: w})
	}
	m := NewModel(0, false)
	ld := labeledDoc(doc)
	rng := rand.New(rand.NewSource(seed))
	for i := range words {
		for l := Label(0); l < NumLabels; l++ {
			m.W.Set(EmissionKey(int(ld.ix.code(i)), l), rng.NormFloat64())
		}
	}
	for a := Label(0); a < NumLabels; a++ {
		m.W.Set(BiasKey(a), 0.3*rng.NormFloat64())
		m.W.Set(CapsKey(true, a), 0.3*rng.NormFloat64())
		m.W.Set(CapsKey(false, a), 0.3*rng.NormFloat64())
		for b := Label(0); b < NumLabels; b++ {
			m.W.Set(TransKey(a, b), 0.5*rng.NormFloat64())
		}
	}
	return m, ld
}

// graphFor mirrors the model as an explicit factor graph so the
// enumeration oracle applies: node and transition factors, and on a
// skip-chain model one skip factor per partner pair.
func graphFor(m *Model, ld *LabeledDoc) *factor.Graph {
	g := factor.NewGraph()
	dom := factor.NewDomain("label", LabelNames[:]...)
	vars := make([]*factor.Var, ld.Len())
	for i := range vars {
		i := i
		vars[i] = g.AddVar("y", dom)
		g.MustAddFactor("node", func(vals []int) float64 {
			return m.theta().nodeScore(ld.ix, ld.ix.code(i), Label(vals[0]))
		}, vars[i])
	}
	for i := 1; i < len(vars); i++ {
		g.MustAddFactor("trans", func(vals []int) float64 {
			return m.W.Get(TransKey(Label(vals[0]), Label(vals[1])))
		}, vars[i-1], vars[i])
	}
	if m.UseSkip {
		for i := range vars {
			for _, q := range partners(ld.ix, i) {
				if int(q) > i {
					g.MustAddFactor("skip", func(vals []int) float64 {
						return m.W.Get(SkipKey(vals[0] == vals[1]))
					}, vars[i], vars[q])
				}
			}
		}
	}
	return g
}

func TestChainMarginalsMatchEnumeration(t *testing.T) {
	// 9^4 = 6561 states: enumerable.
	m, ld := tinyChainSetup(t, []string{"IBM", "said", "Clinton", "won"}, 3)
	got, err := m.ChainMarginals(ld)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := graphFor(m, ld).ExactMarginals()
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		for l := 0; l < NumLabels; l++ {
			if math.Abs(got[i][l]-exact[i][l]) > 1e-9 {
				t.Fatalf("pos %d label %d: forward-backward %v, enumeration %v", i, l, got[i][l], exact[i][l])
			}
		}
	}
}

func TestChainMarginalsSumToOne(t *testing.T) {
	m, ld := tinyChainSetup(t, []string{"a", "b", "c", "d", "e", "f"}, 7)
	got, err := m.ChainMarginals(ld)
	if err != nil {
		t.Fatal(err)
	}
	for i, dist := range got {
		var s float64
		for _, p := range dist {
			s += p
		}
		if math.Abs(s-1) > 1e-9 {
			t.Errorf("pos %d marginals sum to %v", i, s)
		}
	}
}

func TestChainLogZMatchesEnumeration(t *testing.T) {
	m, ld := tinyChainSetup(t, []string{"x", "y", "z"}, 13)
	logZ, err := m.ChainLogZ(ld)
	if err != nil {
		t.Fatal(err)
	}
	// Enumerate.
	var rec func(i int, assign []Label)
	sum := math.Inf(-1)
	saved := labelsOf(ld)
	rec = func(i int, assign []Label) {
		if i == len(assign) {
			setLabels(ld, assign...)
			s := m.DocScore(ld)
			if math.IsInf(sum, -1) {
				sum = s
			} else {
				hi, lo := sum, s
				if lo > hi {
					hi, lo = lo, hi
				}
				sum = hi + math.Log1p(math.Exp(lo-hi))
			}
			return
		}
		for l := Label(0); l < NumLabels; l++ {
			assign[i] = l
			rec(i+1, assign)
		}
	}
	rec(0, make([]Label, ld.Len()))
	setLabels(ld, saved...)
	if math.Abs(logZ-sum) > 1e-9 {
		t.Fatalf("ChainLogZ %v, enumerated %v", logZ, sum)
	}
}

// TestMCMCMatchesForwardBackward is the scale bridge: the sampler's
// empirical token marginals on a linear-chain document must converge to
// the forward-backward exact values.
func TestMCMCMatchesForwardBackward(t *testing.T) {
	m, ld := tinyChainSetup(t, []string{"IBM", "said", "Clinton", "won", "games"}, 17)
	exact, err := m.ChainMarginals(ld)
	if err != nil {
		t.Fatal(err)
	}
	tg := retag(m, ld)
	s := mcmc.NewSampler(tg, 23)
	counts := make([][NumLabels]float64, ld.Len())
	s.Run(3000) // burn-in
	samples := 150000
	for i := 0; i < samples; i++ {
		s.Run(4)
		for pos := range counts {
			counts[pos][tg.Docs[0].Label(pos)]++
		}
	}
	worst := 0.0
	for pos := range counts {
		for l := 0; l < NumLabels; l++ {
			d := math.Abs(counts[pos][l]/float64(samples) - exact[pos][l])
			if d > worst {
				worst = d
			}
		}
	}
	if worst > 0.02 {
		t.Errorf("max |MCMC - forward-backward| = %.4f, want <= 0.02", worst)
	}
}

// TestMCMCMatchesExactSkipChain holds the tagger to exact marginals on a
// skip-chain model, where no forward-backward oracle exists: the
// capitalized string repeats, so the enumerated graph carries three skip
// factors the walk must respect.
func TestMCMCMatchesExactSkipChain(t *testing.T) {
	m, ld := tinyChainSetup(t, []string{"Smith", "said", "Smith", "met", "Smith"}, 19)
	m.UseSkip = true
	m.W.Set(SkipKey(true), 1.2)
	m.W.Set(SkipKey(false), -0.8)
	exact, err := graphFor(m, ld).ExactMarginals()
	if err != nil {
		t.Fatal(err)
	}
	tg := retag(m, ld)
	s := mcmc.NewSampler(tg, 29)
	counts := make([][NumLabels]float64, ld.Len())
	s.Run(3000) // burn-in
	samples := 150000
	for i := 0; i < samples; i++ {
		s.Run(4)
		for pos := range counts {
			counts[pos][tg.Docs[0].Label(pos)]++
		}
	}
	worst := 0.0
	for pos := range counts {
		for l := 0; l < NumLabels; l++ {
			if d := math.Abs(counts[pos][l]/float64(samples) - exact[pos][l]); d > worst {
				worst = d
			}
		}
	}
	if worst > 0.02 {
		t.Errorf("max |MCMC - exact| = %.4f on the skip chain, want <= 0.02", worst)
	}
}

func TestChainRejectsSkipModels(t *testing.T) {
	m := NewModel(0, true)
	ld := labeledDoc(&Doc{Tokens: []Token{{Str: "x"}}})
	if _, err := m.ChainMarginals(ld); err == nil {
		t.Error("ChainMarginals must reject skip models")
	}
	if _, err := m.ChainLogZ(ld); err == nil {
		t.Error("ChainLogZ must reject skip models")
	}
}

func TestChainEmptyDoc(t *testing.T) {
	m := NewModel(0, false)
	ld := labeledDoc(&Doc{})
	if got, err := m.ChainMarginals(ld); err != nil || got != nil {
		t.Errorf("empty doc marginals = %v, %v", got, err)
	}
	if z, err := m.ChainLogZ(ld); err != nil || z != 0 {
		t.Errorf("empty doc logZ = %v, %v", z, err)
	}
}
