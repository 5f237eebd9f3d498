package ie

import (
	"math"
	"math/rand"
	"testing"
)

// TestFFBSMatchesForwardBackward: empirical marginals of exact iid
// samples must match the forward-backward marginals.
func TestFFBSMatchesForwardBackward(t *testing.T) {
	m, ld := tinyChainSetup(t, []string{"IBM", "said", "Clinton", "won"}, 31)
	exact, err := m.ChainMarginals(ld)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	counts := make([][NumLabels]float64, ld.Len())
	samples := 120000
	for s := 0; s < samples; s++ {
		if err := m.SampleChain(ld, rng); err != nil {
			t.Fatal(err)
		}
		for i := range counts {
			counts[i][ld.Label(i)]++
		}
	}
	worst := 0.0
	for i := range counts {
		for l := 0; l < NumLabels; l++ {
			if d := math.Abs(counts[i][l]/float64(samples) - exact[i][l]); d > worst {
				worst = d
			}
		}
	}
	if worst > 0.01 {
		t.Errorf("max |FFBS - forward-backward| = %.4f, want <= 0.01", worst)
	}
}

func TestFFBSRejectsSkipModel(t *testing.T) {
	m := NewModel(0, true)
	ld := labeledDoc(&Doc{Tokens: []Token{{Str: "x"}}})
	if err := m.SampleChain(ld, rand.New(rand.NewSource(1))); err == nil {
		t.Error("SampleChain must reject skip models")
	}
}

// TestSampleCorpusWritesThrough: a chain's full-world regeneration lands
// in its world's rows through the change log, and is the world a trainer,
// whose flips skip the log, draws from the same seed.
func TestSampleCorpusWritesThrough(t *testing.T) {
	c, _ := Generate(DefaultGenConfig(400, 41))
	m := modelFor(c, false)
	rng := rand.New(rand.NewSource(3))
	// Random weights so samples are non-trivial.
	trainer := newTagger(m, c)
	for _, ld := range trainer.Docs {
		for i := range ld.Len() {
			for l := Label(0); l < NumLabels; l++ {
				m.W.Set(EmissionKey(int(ld.ix.code(i)), l), rng.NormFloat64())
			}
		}
	}
	tg, log := chainTagger(t, m, c)
	for _, s := range []*Tagger{tg, trainer} {
		if err := s.SampleCorpus(rand.New(rand.NewSource(5))); err != nil {
			t.Fatal(err)
		}
	}
	entities := 0
	for d, ld := range tg.Docs {
		for i := range ld.Len() {
			l := ld.Label(i)
			if tu, _ := tg.rel.Get(rowOf(ld, i)); tu[LabelCol].AsString() != l.String() {
				t.Fatalf("doc %d tok %d: row %v, label %v", d, i, tu, l)
			}
			if got := trainer.Docs[d].Label(i); got != l {
				t.Fatalf("doc %d tok %d: the trainer drew %v, the chain %v", d, i, got, l)
			}
			if l != LO {
				entities++
			}
		}
	}
	if entities == 0 {
		t.Fatal("the sampled world is all O; the check proves nothing")
	}
	if log.Drain().Empty() {
		t.Error("full regeneration should produce deltas")
	}
}
