package ie

import (
	"math"
	"math/rand"
	"testing"

	"factordb/internal/relstore"
	"factordb/internal/world"
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
	counts := make([][NumLabels]float64, len(ld.Labels))
	samples := 120000
	for s := 0; s < samples; s++ {
		if err := m.SampleChain(ld, rng); err != nil {
			t.Fatal(err)
		}
		for i, l := range ld.Labels {
			counts[i][l]++
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

func TestSampleCorpusWritesThrough(t *testing.T) {
	c, _ := Generate(DefaultGenConfig(400, 41))
	m := modelFor(c, false)
	rng := rand.New(rand.NewSource(3))
	// Random weights so samples are non-trivial.
	tg0 := newTagger(m, c)
	for _, ld := range tg0.Docs {
		for i := range ld.Labels {
			for l := Label(0); l < NumLabels; l++ {
				m.W.Set(EmissionKey(int(ld.ix.codes[i]), l), rng.NormFloat64())
			}
		}
	}
	db := relstore.NewDB()
	if err := LoadCorpus(db, c, LO); err != nil {
		t.Fatal(err)
	}
	log := world.NewChangeLog(db)
	tg := newTagger(m, c)
	if err := tg.BindDB(log); err != nil {
		t.Fatal(err)
	}
	if err := tg.SampleCorpus(rng); err != nil {
		t.Fatal(err)
	}
	// Store must mirror memory after full-world regeneration.
	rel, _ := db.Relation(TokenRelation)
	for d, ld := range tg.Docs {
		for i, l := range ld.Labels {
			tu, _ := rel.Get(rowOf(ld, i))
			if tu[LabelCol].AsString() != l.String() {
				t.Fatalf("doc %d tok %d: store %q, memory %q", d, i, tu[LabelCol].AsString(), l)
			}
		}
	}
	if !log.Pending() {
		t.Error("full regeneration should produce deltas")
	}
}
