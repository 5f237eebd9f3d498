package ie

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"factordb/internal/learn"
	"factordb/internal/mcmc"
	"factordb/internal/relstore"
	"factordb/internal/world"
)

func TestLabelInventory(t *testing.T) {
	if NumLabels != 9 {
		t.Fatalf("NumLabels = %d", NumLabels)
	}
	for i := 0; i < NumLabels; i++ {
		l := Label(i)
		got, ok := ParseLabel(l.String())
		if !ok || got != l {
			t.Errorf("round trip failed for %v", l)
		}
	}
	if _, ok := ParseLabel("NOPE"); ok {
		t.Error("ParseLabel accepted garbage")
	}
}

func TestBIOValidity(t *testing.T) {
	cases := []struct {
		prev, next Label
		ok         bool
	}{
		{LO, LO, true},
		{LO, LBPer, true},
		{LBPer, LIPer, true},
		{LIPer, LIPer, true},
		{LO, LIPer, false},    // I- cannot open after O
		{LBOrg, LIPer, false}, // I-PER cannot follow B-ORG
		{LBPer, LBOrg, true},
		{LILoc, LILoc, true},
		{LBMisc, LIMisc, true},
	}
	for _, c := range cases {
		if got := c.next.ValidAfter(c.prev); got != c.ok {
			t.Errorf("ValidAfter(%v after %v) = %v, want %v", c.next, c.prev, got, c.ok)
		}
	}
}

func TestEntityTypePairsBAndI(t *testing.T) {
	pairs := [][2]Label{{LBPer, LIPer}, {LBOrg, LIOrg}, {LBLoc, LILoc}, {LBMisc, LIMisc}}
	for _, p := range pairs {
		if p[0].EntityType() != p[1].EntityType() {
			t.Errorf("%v and %v should share entity type", p[0], p[1])
		}
		if !p[0].IsBegin() || !p[1].IsInside() {
			t.Errorf("B/I classification wrong for %v/%v", p[0], p[1])
		}
	}
	if LO.EntityType() != 0 || LO.IsBegin() || LO.IsInside() {
		t.Error("O misclassified")
	}
}

func TestGenerateCorpus(t *testing.T) {
	c, err := Generate(DefaultGenConfig(5000, 1))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumTokens < 5000 {
		t.Fatalf("NumTokens = %d, want >= 5000", c.NumTokens)
	}
	// Gold labels must be BIO-valid sequences.
	entities, skipStrings := 0, 0
	for _, d := range c.Docs {
		prev := LO
		seen := map[string]int{}
		for _, tok := range d.Tokens {
			if !tok.Gold.ValidAfter(prev) {
				t.Fatalf("doc %d: invalid gold sequence %v after %v", d.ID, tok.Gold, prev)
			}
			if tok.Gold.IsBegin() {
				entities++
			}
			if IsCapitalized(tok.Str) {
				seen[tok.Str]++
			}
			prev = tok.Gold
		}
		for _, n := range seen {
			if n > 1 {
				skipStrings++
			}
		}
	}
	if entities == 0 {
		t.Error("corpus has no entities")
	}
	if skipStrings == 0 {
		t.Error("corpus has no repeated capitalized strings (no skip edges)")
	}
	// Mostly O, as in real NER data.
	o := 0
	for _, d := range c.Docs {
		for _, tok := range d.Tokens {
			if tok.Gold == LO {
				o++
			}
		}
	}
	if frac := float64(o) / float64(c.NumTokens); frac < 0.5 {
		t.Errorf("O fraction = %.2f, want majority O", frac)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(DefaultGenConfig(2000, 7))
	b, _ := Generate(DefaultGenConfig(2000, 7))
	if len(a.Docs) != len(b.Docs) || a.NumTokens != b.NumTokens {
		t.Fatal("same seed produced different corpora")
	}
	for i := range a.Docs {
		for j := range a.Docs[i].Tokens {
			if a.Docs[i].Tokens[j] != b.Docs[i].Tokens[j] {
				t.Fatal("same seed produced different tokens")
			}
		}
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	if _, err := Generate(GenConfig{NumTokens: 0}); err == nil {
		t.Error("zero tokens: want error")
	}
}

// TestGenDocNeverEmpty: at TokensPerDoc 1 the drawn target length rounds
// to zero; every document must still get a token, or Generate, which
// appends documents until it has NumTokens, would never return.
func TestGenDocNeverEmpty(t *testing.T) {
	cfg := GenConfig{NumTokens: 10, TokensPerDoc: 1, EntityRate: 0.2, RepeatRate: 0.4, Seed: 5}
	rng := rand.New(rand.NewSource(cfg.Seed))
	lx := buildLexicons(rng, cfg)
	for id := 0; id < 5; id++ {
		if doc := genDoc(rng, id, cfg, lx); len(doc.Tokens) == 0 {
			t.Fatalf("document %d has no tokens", id)
		}
	}
}

func TestSkipPartners(t *testing.T) {
	doc := &Doc{ID: 0, Tokens: []Token{
		{Str: "IBM"}, {Str: "said"}, {Str: "IBM"}, {Str: "the"}, {Str: "IBM"}, {Str: "the"},
	}}
	ld := labeledDoc(doc)
	// Three IBMs: each has 2 partners. Lowercase "the" gets none.
	for _, i := range []int{0, 2, 4} {
		if ld.SkipDegree(i) != 2 {
			t.Errorf("IBM at %d has %d partners, want 2", i, ld.SkipDegree(i))
		}
	}
	for _, i := range []int{1, 3, 5} {
		if ld.SkipDegree(i) != 0 {
			t.Errorf("token %d has %d partners, want 0", i, ld.SkipDegree(i))
		}
	}
}

// TestScoreDeltaMatchesDocScore verifies the factor-cancellation identity
// on the skip-chain model: local deltas must equal full-document rescores.
func TestScoreDeltaMatchesDocScore(t *testing.T) {
	c, _ := Generate(DefaultGenConfig(600, 3))
	m := modelFor(c, true)
	// Random weights make the check meaningful.
	rng := rand.New(rand.NewSource(4))
	tg := newTagger(m, c)
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
	m.W.Set(SkipKey(true), 1.3)
	m.W.Set(SkipKey(false), -0.7)

	ld := tg.Docs[0]
	for trial := 0; trial < 300; trial++ {
		i := rng.Intn(len(ld.Labels))
		newL := Label(rng.Intn(NumLabels))
		before := m.DocScore(ld)
		delta := m.ScoreDelta(ld, i, newL)
		old := ld.Labels[i]
		ld.Labels[i] = newL
		after := m.DocScore(ld)
		ld.Labels[i] = old
		if math.Abs(delta-(after-before)) > 1e-9 {
			t.Fatalf("trial %d pos %d %v->%v: delta=%v rescore=%v", trial, i, old, newL, delta, after-before)
		}
		// Apply some flips to vary the state.
		if trial%3 == 0 {
			ld.Labels[i] = newL
		}
	}
}

func TestFeatureDeltaConsistentWithScoreDelta(t *testing.T) {
	c, _ := Generate(DefaultGenConfig(400, 5))
	m := modelFor(c, true)
	rng := rand.New(rand.NewSource(6))
	tg := newTagger(m, c)
	ld := tg.Docs[0]
	// Seed random weights on the features that will fire.
	var fd learn.Delta
	for trial := 0; trial < 100; trial++ {
		i := rng.Intn(len(ld.Labels))
		newL := Label(rng.Intn(NumLabels))
		fd.Reset()
		m.FeatureDelta(&fd, ld, i, newL)
		if got, want := m.W.Dot(fd), m.ScoreDelta(ld, i, newL); math.Abs(got-want) > 1e-9 {
			t.Fatalf("W·Δφ = %v, ScoreDelta = %v", got, want)
		}
		for _, f := range fd {
			m.W.Set(f.I, rng.NormFloat64())
		}
		if got, want := m.W.Dot(fd), m.ScoreDelta(ld, i, newL); math.Abs(got-want) > 1e-9 {
			t.Fatalf("after reweighting: W·Δφ = %v, ScoreDelta = %v", got, want)
		}
		ld.Labels[i] = newL
	}
}

func TestTrainingImprovesAccuracy(t *testing.T) {
	c, _ := Generate(DefaultGenConfig(3000, 11))
	m := modelFor(c, true)
	tg := newTagger(m, c)
	base := tg.Accuracy() // all-O baseline
	tg.Train(60000, 1.0, 13)
	got := tg.Accuracy()
	if got <= base+0.05 {
		t.Errorf("accuracy after training = %.3f, baseline %.3f", got, base)
	}
	// The learned emission weight for an unambiguous filler must prefer O.
	for d, doc := range c.Docs {
		for i, tok := range doc.Tokens {
			if tok.Str != "the" {
				continue
			}
			if id := int(tg.Docs[d].ix.strIDs[i]); m.W.Get(EmissionKey(id, LO)) <= m.W.Get(EmissionKey(id, LBPer)) {
				t.Error("training did not learn that 'the' is O")
			}
			return
		}
	}
}

// TestLoadCorpusAndWriteThrough: token i of document d is row first+i,
// first being the tokens of the documents before it, and the index
// addresses the same rows, so accepted flips land on them.
func TestLoadCorpusAndWriteThrough(t *testing.T) {
	c, _ := Generate(DefaultGenConfig(500, 17))
	m := modelFor(c, true)
	db := relstore.NewDB()
	if err := LoadCorpus(db, c, LO); err != nil {
		t.Fatal(err)
	}
	rel, _ := db.Relation(TokenRelation)
	if rel.Len() != c.NumTokens {
		t.Fatalf("TOKEN has %d rows, want %d", rel.Len(), c.NumTokens)
	}
	// The load declares the tagger's one column hidden, and no other.
	for i, col := range rel.Schema().Cols {
		if rel.Schema().Hidden(i) != (i == LabelCol) {
			t.Errorf("TOKEN.%s: hidden=%v, want %v", col.Name, rel.Schema().Hidden(i), i == LabelCol)
		}
	}
	tg := newTagger(m, c)
	first := 0
	for d, doc := range c.Docs {
		if got := tg.Docs[d].ix.first; got != first {
			t.Fatalf("doc %d: the index starts it at row %d, the load at row %d", d, got, first)
		}
		for i, tok := range doc.Tokens {
			row := relstore.RowID(first + i)
			if tu, ok := rel.Get(row); !ok || tu[2].AsString() != tok.Str || tu[truthCol].AsString() != tok.Gold.String() {
				t.Fatalf("doc %d tok %d: row %d holds %v, want %q/%v", d, i, row, tu, tok.Str, tok.Gold)
			}
		}
		first += len(doc.Tokens)
	}
	log := world.NewChangeLog(db)
	if err := tg.BindDB(log); err != nil {
		t.Fatal(err)
	}
	// Run a few MH steps with random weights; accepted flips must appear
	// in the store, each on its own token's row.
	s := mcmc.NewSampler(tg, 23)
	s.Run(500)
	mem := 0
	for _, ld := range tg.Docs {
		for i, l := range ld.Labels {
			if tu, _ := rel.Get(rowOf(ld, i)); tu[LabelCol].AsString() != l.String() {
				t.Fatalf("row %d: store %q, memory %q", rowOf(ld, i), tu[LabelCol].AsString(), l)
			}
			if l != LO {
				mem++
			}
		}
	}
	if !log.Pending() && mem > 0 {
		t.Error("change log should have pending deltas")
	}
}

// TestBindDBValidation: BindDB refuses a world without TOKEN and one
// that issued fewer ids than the index addresses, whose last flips would
// miss their rows and be dropped as deleted-row writes; it binds the
// world LoadCorpus filled.
func TestBindDBValidation(t *testing.T) {
	c, _ := Generate(DefaultGenConfig(1000, 19))
	tg := newTagger(modelFor(c, false), c)
	if err := tg.BindDB(world.NewChangeLog(relstore.NewDB())); err == nil {
		t.Error("a world without TOKEN: BindDB accepted it")
	}
	short := &Corpus{Docs: slices.Clone(c.Docs)}
	last := &short.Docs[len(short.Docs)-1]
	last.Tokens = last.Tokens[:len(last.Tokens)-1]
	db := relstore.NewDB()
	if err := LoadCorpus(db, short, LO); err != nil {
		t.Fatal(err)
	}
	if err := tg.BindDB(world.NewChangeLog(db)); err == nil {
		t.Error("a world one row short: BindDB accepted it")
	}
	db = relstore.NewDB()
	if err := LoadCorpus(db, c, LO); err != nil {
		t.Fatal(err)
	}
	if err := tg.BindDB(world.NewChangeLog(db)); err != nil {
		t.Fatalf("LoadCorpus's own world: %v", err)
	}
}

func TestActiveDocBatching(t *testing.T) {
	c, _ := Generate(GenConfig{NumTokens: 2000, TokensPerDoc: 100, EntityRate: 0.2, RepeatRate: 0.4, Seed: 37})
	if len(c.Docs) < 6 {
		t.Skip("need several docs")
	}
	tg := newTagger(modelFor(c, true), c)
	tg.ActiveDocs = 2
	tg.StepsPerBatch = 50
	s := mcmc.NewSampler(tg, 41)
	s.Run(2000)
	if s.Accepted() == 0 {
		t.Error("batched proposer never accepted")
	}
}

func TestFactorsTouchedCounts(t *testing.T) {
	doc := &Doc{ID: 0, Tokens: []Token{{Str: "IBM"}, {Str: "x"}, {Str: "IBM"}}}
	m := NewModel(0, true)
	ld := labeledDoc(doc)
	// Position 0: emission+caps+bias (3) + right trans (1) + 1 skip = 5 → ×2.
	if got := m.FactorsTouched(ld, 0); got != 10 {
		t.Errorf("FactorsTouched(0) = %d, want 10", got)
	}
	// Middle: 3 + 2 trans + 0 skip = 5 → ×2.
	if got := m.FactorsTouched(ld, 1); got != 10 {
		t.Errorf("FactorsTouched(1) = %d, want 10", got)
	}
	m2 := NewModel(0, false)
	if got := m2.FactorsTouched(ld, 0); got != 8 {
		t.Errorf("no-skip FactorsTouched(0) = %d, want 8", got)
	}
}
