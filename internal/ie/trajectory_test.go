package ie

import (
	"math/rand"
	"testing"

	"factordb/internal/mcmc"
	"factordb/internal/mcmc/mcmctest"
	"factordb/internal/relstore"
)

// trajectoryTagger builds a skip-chain tagger with random weights on
// every template, bound to a freshly loaded TOKEN relation.
func trajectoryTagger(t *testing.T) (*Tagger, *relstore.Relation, []relstore.RowID) {
	t.Helper()
	c, err := Generate(GenConfig{NumTokens: 1200, TokensPerDoc: 100, EntityRate: 0.2, RepeatRate: 0.4, Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(BuildVocab(c), true)
	tg := newTagger(m, c)
	rng := rand.New(rand.NewSource(93))
	for _, ld := range tg.Docs {
		for i := range ld.Labels {
			for l := Label(0); l < NumLabels; l++ {
				m.W.Set(EmissionKey(int(ld.ix.strIDs[i]), l), rng.NormFloat64())
			}
		}
	}
	for a := Label(0); a < NumLabels; a++ {
		m.W.Set(BiasKey(a), rng.NormFloat64())
		m.W.Set(CapsKey(true, a), rng.NormFloat64())
		m.W.Set(CapsKey(false, a), rng.NormFloat64())
		for b := Label(0); b < NumLabels; b++ {
			m.W.Set(TransKey(a, b), rng.NormFloat64())
		}
	}
	m.W.Set(SkipKey(true), 0.9)
	m.W.Set(SkipKey(false), -0.4)
	db, base, log := loadBound(t, c)
	if err := tg.BindDB(log, base); err != nil {
		t.Fatal(err)
	}
	rel, err := db.Relation(TokenRelation)
	if err != nil {
		t.Fatal(err)
	}
	return tg, rel, base
}

// TestTrajectory pins the walk of every NER proposal kernel: the hidden
// labels in memory, their write-through copies in the store, and the
// sampler's counters after a fixed-seed run.
func TestTrajectory(t *testing.T) {
	cases := []struct {
		name     string
		proposer func(tg *Tagger) mcmc.Proposer
	}{
		{"tagger", func(tg *Tagger) mcmc.Proposer { return tg }},
		{"tagger-bio", func(tg *Tagger) mcmc.Proposer { tg.ConstrainBIO = true; return tg }},
		{"tagger-batched", func(tg *Tagger) mcmc.Proposer {
			tg.ActiveDocs, tg.StepsPerBatch = 3, 400
			return tg
		}},
		{"tagger-bio-batched", func(tg *Tagger) mcmc.Proposer {
			tg.ConstrainBIO = true
			tg.ActiveDocs, tg.StepsPerBatch = 3, 400
			return tg
		}},
		{"tagger-targeted", func(tg *Tagger) mcmc.Proposer {
			if err := tg.TargetDocs([]int{1, 4, 7}); err != nil {
				t.Fatal(err)
			}
			return tg
		}},
		{"span", func(tg *Tagger) mcmc.Proposer { return &SpanProposer{Tagger: tg} }},
		{"mixed", func(tg *Tagger) mcmc.Proposer { return NewMixedProposer(tg, 0.3) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tg, rel, base := trajectoryTagger(t)
			s := mcmc.NewSampler(tc.proposer(tg), 97)
			s.Run(8000)
			h := mcmctest.NewHash()
			for d, ld := range tg.Docs {
				for i, l := range ld.Labels {
					h.Int(int(l))
					tu, ok := rel.Get(base[d] + relstore.RowID(i))
					if !ok {
						t.Fatalf("doc %d tok %d: row missing", d, i)
					}
					h.String(tu[LabelCol].AsString())
				}
			}
			mcmctest.Check(t, tc.name, h, s.Steps(), s.Accepted())
		})
	}
}
