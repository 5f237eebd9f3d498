package ie

import (
	"math"
	"math/rand"
	"testing"

	"factordb/internal/mcmc"
	"factordb/internal/relstore"
	"factordb/internal/world"
)

// TestSpanScoreDeltaMatchesDocScore checks the block-move delta against a
// full-document rescore on the skip-chain model.
func TestSpanScoreDeltaMatchesDocScore(t *testing.T) {
	c, _ := Generate(DefaultGenConfig(600, 51))
	v := BuildVocab(c)
	m := NewModel(v, true)
	tg := newTagger(m, c)
	rng := rand.New(rand.NewSource(7))
	ld := tg.Docs[0]
	for i := range ld.Labels {
		for l := Label(0); l < NumLabels; l++ {
			m.W.Set(EmissionKey(int(ld.ix.strIDs[i]), l), rng.NormFloat64())
		}
	}
	for a := Label(0); a < NumLabels; a++ {
		m.W.Set(BiasKey(a), rng.NormFloat64())
		for b := Label(0); b < NumLabels; b++ {
			m.W.Set(TransKey(a, b), rng.NormFloat64())
		}
	}
	m.W.Set(SkipKey(true), 0.8)
	m.W.Set(SkipKey(false), -0.6)

	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(maxSpanLen)
		i := rng.Intn(len(ld.Labels) - n)
		newLabels := make([]Label, n)
		for j := range newLabels {
			newLabels[j] = Label(rng.Intn(NumLabels))
		}
		before := m.DocScore(ld)
		delta := m.SpanScoreDelta(ld, i, newLabels)
		saved := append([]Label{}, ld.Labels[i:i+n]...)
		copy(ld.Labels[i:], newLabels)
		after := m.DocScore(ld)
		if math.Abs(delta-(after-before)) > 1e-9 {
			t.Fatalf("trial %d (i=%d n=%d): delta=%v rescore=%v", trial, i, n, delta, after-before)
		}
		// Sometimes keep the flip to vary the state.
		if trial%2 == 0 {
			copy(ld.Labels[i:], saved)
		}
	}
}

// TestSpanProposerMatchesExactMarginals: validity of the block kernel on
// a linear chain against forward-backward.
func TestSpanProposerMatchesExactMarginals(t *testing.T) {
	m, ld := tinyChainSetup(t, []string{"IBM", "said", "Clinton", "won"}, 61)
	exact, err := m.ChainMarginals(ld)
	if err != nil {
		t.Fatal(err)
	}
	tg := retag(m, ld)
	s := mcmc.NewSampler(NewMixedProposer(tg, 0.5), 13)
	s.Run(3000)
	counts := make([][NumLabels]float64, len(ld.Labels))
	samples := 200000
	for k := 0; k < samples; k++ {
		s.Run(4)
		for i, l := range tg.Docs[0].Labels {
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
	if worst > 0.02 {
		t.Errorf("max |block-MCMC - exact| = %.4f, want <= 0.02", worst)
	}
}

// TestSpanProposerWriteThrough: an accepted block move must land all its
// tuple changes in the store (a multi-tuple Δ per step).
func TestSpanProposerWriteThrough(t *testing.T) {
	c, _ := Generate(DefaultGenConfig(500, 67))
	v := BuildVocab(c)
	m := NewModel(v, true)
	rng := rand.New(rand.NewSource(3))
	tg := newTagger(m, c)
	for _, ld := range tg.Docs {
		for i := range ld.Labels {
			for l := Label(0); l < NumLabels; l++ {
				m.W.Set(EmissionKey(int(ld.ix.strIDs[i]), l), rng.NormFloat64())
			}
		}
	}
	db, base, log := loadBound(t, c)
	if err := tg.BindDB(log, base); err != nil {
		t.Fatal(err)
	}
	s := mcmc.NewSampler(NewMixedProposer(tg, 1.0), 5)
	s.Run(2000)
	rel, _ := db.Relation(TokenRelation)
	for d, ld := range tg.Docs {
		for i, l := range ld.Labels {
			tu, _ := rel.Get(base[d] + relstore.RowID(i))
			if tu[LabelCol].AsString() != l.String() {
				t.Fatalf("doc %d tok %d: store %q, memory %q", d, i, tu[LabelCol].AsString(), l)
			}
		}
	}
}

// loadBound is a small helper shared by write-through tests.
func loadBound(t *testing.T, c *Corpus) (db *relstore.DB, base []relstore.RowID, log *world.ChangeLog) {
	t.Helper()
	db = relstore.NewDB()
	var err error
	base, err = LoadCorpus(db, c, LO)
	if err != nil {
		t.Fatal(err)
	}
	return db, base, world.NewChangeLog(db)
}
