package ie

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"factordb/internal/mcmc"
)

func TestDocsContaining(t *testing.T) {
	c := &Corpus{Docs: []Doc{
		{ID: 0, Tokens: []Token{{Str: "Boston"}, {Str: "won"}}},
		{ID: 1, Tokens: []Token{{Str: "IBM"}}},
		{ID: 2, Tokens: []Token{{Str: "in"}, {Str: "Boston"}, {Str: "Boston"}}},
	}}
	ix := NewCorpusIndex(c, BuildVocab(c))
	if got := ix.DocsContaining("Boston"); !slices.Equal(got, []int{0, 2}) {
		t.Errorf("DocsContaining = %v", got)
	}
	if ix.DocsContaining("nope") != nil {
		t.Error("missing string should return nil")
	}

	// On a generated corpus the index lookup finds exactly the documents
	// a scan of the tokens finds, and a string outside the vocabulary is
	// in no document and is not interned by the lookup.
	c, err := Generate(DefaultGenConfig(5000, 1))
	if err != nil {
		t.Fatal(err)
	}
	v := BuildVocab(c)
	ix = NewCorpusIndex(c, v)
	scan := func(s string) []int {
		var out []int
		for d := range c.Docs {
			if slices.ContainsFunc(c.Docs[d].Tokens, func(tok Token) bool { return tok.Str == s }) {
				out = append(out, d)
			}
		}
		return out
	}
	strs := []string{"Boston"}
	for id := 0; id < v.Size() && len(strs) < 12; id += 7 {
		if s := v.Str(id); IsCapitalized(s) {
			strs = append(strs, s)
		}
	}
	for _, s := range strs {
		want := scan(s)
		if len(want) == 0 {
			t.Fatalf("%q: no document holds it; the check proves nothing", s)
		}
		if got := ix.DocsContaining(s); !slices.Equal(got, want) {
			t.Errorf("%q: DocsContaining = %v, scan = %v", s, got, want)
		}
	}
	size := v.Size()
	if got := ix.DocsContaining("Nowhereville"); got != nil {
		t.Errorf("out-of-vocabulary string: DocsContaining = %v, want nil", got)
	}
	if v.Size() != size {
		t.Errorf("the lookup interned its string: vocabulary %d -> %d", size, v.Size())
	}
}

func TestTargetDocsValidation(t *testing.T) {
	c, _ := Generate(DefaultGenConfig(500, 3))
	tg := newTagger(NewModel(BuildVocab(c), false), c)
	if err := tg.TargetDocs(nil); err == nil {
		t.Error("empty target: want error")
	}
	if err := tg.TargetDocs([]int{-1}); err == nil {
		t.Error("negative doc: want error")
	}
	if err := tg.TargetDocs([]int{0, 0}); err == nil {
		t.Error("duplicate doc: want error")
	}
	if err := tg.TargetDocs([]int{0}); err != nil {
		t.Errorf("valid target rejected: %v", err)
	}
	if tg.StepsPerBatch != 0 || !slices.Equal(tg.active, []int{0}) {
		t.Errorf("after TargetDocs: StepsPerBatch %d, working set %v; want 0 and [0]", tg.StepsPerBatch, tg.active)
	}
}

// TestTargetedProposalsOnlyTouchTargets: labels outside the target set
// must stay frozen.
func TestTargetedProposalsOnlyTouchTargets(t *testing.T) {
	c, _ := Generate(GenConfig{NumTokens: 2000, TokensPerDoc: 100, EntityRate: 0.2, RepeatRate: 0.4, Seed: 5})
	if len(c.Docs) < 4 {
		t.Skip("need several docs")
	}
	v := BuildVocab(c)
	m := NewModel(v, true)
	rng := rand.New(rand.NewSource(7))
	for k := range map[uint64]float64(nil) {
		_ = k
	}
	// Random emission weights so flips happen.
	tg := newTagger(m, c)
	for _, ld := range tg.Docs {
		for i := range ld.Labels {
			for l := Label(0); l < NumLabels; l++ {
				m.W.Set(EmissionKey(int(ld.ix.strIDs[i]), l), rng.NormFloat64())
			}
		}
	}
	target := []int{1, 3}
	if err := tg.TargetDocs(target); err != nil {
		t.Fatal(err)
	}
	s := mcmc.NewSampler(tg, 11)
	s.Run(5000)
	inTarget := map[int]bool{1: true, 3: true}
	for d, ld := range tg.Docs {
		changed := false
		for _, l := range ld.Labels {
			if l != LO {
				changed = true
			}
		}
		if changed && !inTarget[d] {
			t.Fatalf("doc %d outside target changed", d)
		}
	}
	// Targeted docs must actually move.
	moved := false
	for _, d := range target {
		for _, l := range tg.Docs[d].Labels {
			if l != LO {
				moved = true
			}
		}
	}
	if !moved {
		t.Error("no movement inside target docs")
	}
}

// TestTargetedMarginalsMatchFull: because documents are independent graph
// components, targeted sampling must estimate the same marginals for
// events confined to the targeted documents.
func TestTargetedMarginalsMatchFull(t *testing.T) {
	c, _ := Generate(GenConfig{NumTokens: 200, TokensPerDoc: 50, EntityRate: 0.2, RepeatRate: 0.4, Seed: 9})
	v := BuildVocab(c)
	m := NewModel(v, true)
	rng := rand.New(rand.NewSource(13))
	base := newTagger(m, c)
	nDocs := len(base.Docs)
	for _, ld := range base.Docs {
		for i := range ld.Labels {
			for l := Label(0); l < NumLabels; l++ {
				m.W.Set(EmissionKey(int(ld.ix.strIDs[i]), l), 0.5*rng.NormFloat64())
			}
		}
	}
	targetDoc := 0
	// Event: first token of doc 0 is labeled B-PER. The untargeted walk
	// spends only 1/nDocs of its proposals on doc 0, so it gets
	// proportionally more steps for a fair comparison.
	estimate := func(targeted bool, seed int64) float64 {
		tg := newTagger(m, c)
		mult := nDocs
		if targeted {
			if err := tg.TargetDocs([]int{targetDoc}); err != nil {
				t.Fatal(err)
			}
			mult = 1
		}
		s := mcmc.NewSampler(tg, seed)
		s.Run(2000 * mult)
		hits, n := 0, 80000
		for i := 0; i < n; i++ {
			s.Run(3 * mult)
			if tg.Docs[targetDoc].Labels[0] == LBPer {
				hits++
			}
		}
		return float64(hits) / float64(n)
	}
	full := estimate(false, 21)
	targeted := estimate(true, 22)
	if math.Abs(full-targeted) > 0.03 {
		t.Errorf("targeted %v vs full %v marginal for doc-0 event", targeted, full)
	}
}
