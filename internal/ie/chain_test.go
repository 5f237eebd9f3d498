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
			m.W.Set(EmissionKey(int(ld.ix.strIDs[i]), l), rng.NormFloat64())
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

// graphFor mirrors the chain model as an explicit factor graph so the
// enumeration oracle applies.
func graphFor(m *Model, ld *LabeledDoc) *factor.Graph {
	g := factor.NewGraph()
	dom := factor.NewDomain("label", LabelNames[:]...)
	vars := make([]*factor.Var, len(ld.Labels))
	for i := range vars {
		i := i
		vars[i] = g.AddVar("y", dom)
		g.MustAddFactor("node", func(vals []int) float64 {
			return m.theta().nodeScore(ld, i, Label(vals[0]))
		}, vars[i])
	}
	for i := 1; i < len(vars); i++ {
		g.MustAddFactor("trans", func(vals []int) float64 {
			return m.W.Get(TransKey(Label(vals[0]), Label(vals[1])))
		}, vars[i-1], vars[i])
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

func TestViterbiIsArgmax(t *testing.T) {
	m, ld := tinyChainSetup(t, []string{"IBM", "said", "Clinton"}, 11)
	seq, score, err := m.ViterbiDecode(ld)
	if err != nil {
		t.Fatal(err)
	}
	// The Viterbi score must equal DocScore at the decoded labels.
	saved := append([]Label{}, ld.Labels...)
	copy(ld.Labels, seq)
	if got := m.DocScore(ld); math.Abs(got-score) > 1e-9 {
		t.Fatalf("Viterbi score %v, DocScore at decode %v", score, got)
	}
	copy(ld.Labels, saved)
	// Exhaustive check: no assignment scores higher (9^3 = 729 states).
	var rec func(i int, assign []Label)
	best := math.Inf(-1)
	rec = func(i int, assign []Label) {
		if i == len(assign) {
			copy(ld.Labels, assign)
			if s := m.DocScore(ld); s > best {
				best = s
			}
			return
		}
		for l := Label(0); l < NumLabels; l++ {
			assign[i] = l
			rec(i+1, assign)
		}
	}
	rec(0, make([]Label, len(ld.Labels)))
	copy(ld.Labels, saved)
	if math.Abs(best-score) > 1e-9 {
		t.Fatalf("Viterbi %v but exhaustive max %v", score, best)
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
	saved := append([]Label{}, ld.Labels...)
	rec = func(i int, assign []Label) {
		if i == len(assign) {
			copy(ld.Labels, assign)
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
	rec(0, make([]Label, len(ld.Labels)))
	copy(ld.Labels, saved)
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
	counts := make([][NumLabels]float64, len(ld.Labels))
	s.Run(3000) // burn-in
	samples := 150000
	for i := 0; i < samples; i++ {
		s.Run(4)
		for pos, l := range tg.Docs[0].Labels {
			counts[pos][l]++
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

func TestChainRejectsSkipModels(t *testing.T) {
	m := NewModel(0, true)
	ld := labeledDoc(&Doc{Tokens: []Token{{Str: "x"}}})
	if _, err := m.ChainMarginals(ld); err == nil {
		t.Error("ChainMarginals must reject skip models")
	}
	if _, _, err := m.ViterbiDecode(ld); err == nil {
		t.Error("ViterbiDecode must reject skip models")
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
	if seq, score, err := m.ViterbiDecode(ld); err != nil || seq != nil || score != 0 {
		t.Errorf("empty doc viterbi = %v, %v, %v", seq, score, err)
	}
	if z, err := m.ChainLogZ(ld); err != nil || z != 0 {
		t.Errorf("empty doc logZ = %v, %v", z, err)
	}
}
