package ie

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
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
		for i := range ld.Len() {
			for l := Label(0); l < NumLabels; l++ {
				m.W.Set(EmissionKey(int(ld.ix.code(i)), l), rng.NormFloat64())
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
		i := rng.Intn(ld.Len())
		newL := Label(rng.Intn(NumLabels))
		before := m.DocScore(ld)
		delta := m.ScoreDelta(ld, i, newL)
		old := ld.Label(i)
		ld.set(i, newL)
		after := m.DocScore(ld)
		ld.set(i, old)
		if math.Abs(delta-(after-before)) > 1e-9 {
			t.Fatalf("trial %d pos %d %v->%v: delta=%v rescore=%v", trial, i, old, newL, delta, after-before)
		}
		// Apply some flips to vary the state.
		if trial%3 == 0 {
			ld.set(i, newL)
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
		i := rng.Intn(ld.Len())
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
		ld.set(i, newL)
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
			if id := int(tg.Docs[d].ix.code(i)); m.W.Get(EmissionKey(id, LO)) <= m.W.Get(EmissionKey(id, LBPer)) {
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
	ix, err := NewCorpusIndex(db)
	if err != nil {
		t.Fatal(err)
	}
	log := world.NewChangeLog(db)
	tg, err := NewTagger(m, ix, log)
	if err != nil {
		t.Fatal(err)
	}
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
	// Run a few MH steps with random weights; accepted flips must appear
	// in the store, each on its own token's row.
	s := mcmc.NewSampler(tg, 23)
	s.Run(500)
	mem := 0
	for _, ld := range tg.Docs {
		for i := range ld.Len() {
			l := ld.Label(i)
			if tu, _ := rel.Get(rowOf(ld, i)); tu[LabelCol].AsString() != l.String() {
				t.Fatalf("row %d: store %q, tagger %q", rowOf(ld, i), tu[LabelCol].AsString(), l)
			}
			if l != LO {
				mem++
			}
		}
	}
	if log.Drain()[TokenRelation].Len() == 0 && mem > 0 {
		t.Error("change log should have pending deltas")
	}
}

// TestNewTaggerValidation: NewTagger refuses a world without TOKEN, one
// that issued fewer ids than the index addresses, whose last flips would
// miss their rows and be dropped as deleted-row writes, and one whose
// LABEL is not declared; it builds over the world LoadCorpus filled.
func TestNewTaggerValidation(t *testing.T) {
	c, _ := Generate(DefaultGenConfig(1000, 19))
	m := modelFor(c, false)
	_, ix := load(c)
	if _, err := NewTagger(m, ix, world.NewChangeLog(relstore.NewDB())); err == nil {
		t.Error("a world without TOKEN: NewTagger accepted it")
	}
	short := &Corpus{Docs: slices.Clone(c.Docs)}
	last := &short.Docs[len(short.Docs)-1]
	last.Tokens = last.Tokens[:len(last.Tokens)-1]
	db, _ := load(short)
	if _, err := NewTagger(m, ix, world.NewChangeLog(db)); err == nil {
		t.Error("a world one row short: NewTagger accepted it")
	}
	undeclared := relstore.NewDB()
	undeclared.MustCreate(TokenSchema())
	if _, err := NewTagger(m, &CorpusIndex{}, world.NewChangeLog(undeclared)); err == nil {
		t.Error("a world with LABEL undeclared: NewTagger accepted it")
	}
	db, _ = load(c)
	if _, err := NewTagger(m, ix, world.NewChangeLog(db)); err != nil {
		t.Fatalf("LoadCorpus's own world: %v", err)
	}
}

// TestDeletedRowFreezes: once its world DELETEs an indexed row, a chain's
// tagger goes on proposing flips of it, which fail with ErrNotFound and
// are dropped. The tombstone keeps its code, the other rows go on
// flipping, and nothing panics.
func TestDeletedRowFreezes(t *testing.T) {
	c, _ := Generate(DefaultGenConfig(200, 59))
	m := modelFor(c, true)
	rng := rand.New(rand.NewSource(60))
	for i := range *m.W {
		(*m.W)[i] = rng.NormFloat64()
	}
	tg, log := chainTagger(t, m, c)
	mcmc.NewSampler(tg, 61).Run(2000)
	ld, pos := tg.Docs[0], 5
	row := rowOf(ld, pos)
	frozen := tg.rel.CodeAt(row, LabelCol)
	if err := log.DeleteRow(TokenRelation, row); err != nil {
		t.Fatal(err)
	}
	before := labelsOf(ld)
	s := mcmc.NewSampler(tg, 67)
	s.Run(20000)
	if got := tg.rel.CodeAt(row, LabelCol); got != frozen {
		t.Errorf("the deleted row's code went %d → %d", frozen, got)
	}
	moved := 0
	for i, l := range labelsOf(ld) {
		if l != before[i] {
			moved++
		}
	}
	if moved == 0 || s.Accepted() == 0 {
		t.Errorf("after the delete %d of %d positions moved in %d accepted steps", moved, ld.Len(), s.Accepted())
	}
}

// TestTaggerReadsTheLiveColumn: a chain's tagger reads its world's LABEL
// vector as it stands at each read. While it walks, the world takes 1 000
// INSERTs, which regrow the vector, and one Clone, which shares it.
// Afterwards the clone still holds the codes it was cloned with, and
// DocScore equals a score recomputed from the stored labels.
func TestTaggerReadsTheLiveColumn(t *testing.T) {
	c, _ := Generate(DefaultGenConfig(400, 47))
	m := modelFor(c, true)
	rng := rand.New(rand.NewSource(48))
	for i := range *m.W {
		(*m.W)[i] = rng.NormFloat64()
	}
	tg, log := chainTagger(t, m, c)
	s := mcmc.NewSampler(tg, 53)
	var clone *relstore.Relation
	var cloned []uint32
	for k := range 1000 {
		s.Run(20)
		tok := relstore.Tuple{relstore.Int(int64(c.NumTokens + k)), relstore.Int(-1), relstore.String("new"), relstore.String("O"), relstore.String("O")}
		if _, err := log.Insert(TokenRelation, tok); err != nil {
			t.Fatal(err)
		}
		if k == 500 {
			clone, _ = log.DB().Clone().Relation(TokenRelation)
			for row := range clone.NextID() {
				cloned = append(cloned, clone.CodeAt(row, LabelCol))
			}
		}
	}
	s.Run(2000)
	for row, code := range cloned {
		if got := clone.CodeAt(relstore.RowID(row), LabelCol); got != code {
			t.Fatalf("the clone's row %d went from code %d to %d after cloning", row, code, got)
		}
	}
	for d, ld := range tg.Docs {
		if got, want := m.DocScore(ld), storedScore(t, m, ld); math.Abs(got-want) > 1e-9 {
			t.Errorf("doc %d: DocScore %v, the stored labels score %v", d, got, want)
		}
	}
}

// TestTaggerWalkIgnoresLabelWidth: the walk does not depend on the width
// of the LABEL vector it reads and flips. Two chains share an index, θ
// and seed; 4 000 steps in, the first chain's world takes one extra row,
// which the index does not address, holding a 257th LABEL string, so its
// LABEL vector widens from 1 B to 2 B per slot with the walk's labels in
// it. Both walk label-for-label as a third chain over an untouched load,
// whose LABEL stays 1 B per slot, over 24 000 steps.
func TestTaggerWalkIgnoresLabelWidth(t *testing.T) {
	c, _ := Generate(DefaultGenConfig(5000, 71))
	db, ix := load(c)
	m := NewModel(ix.NumStrings(), true)
	rng := rand.New(rand.NewSource(72))
	for i := range *m.W {
		(*m.W)[i] = rng.NormFloat64()
	}
	freshDB, _ := load(c) // a LABEL dictionary of its own: nine labels
	var taggers []*Tagger
	var logs []*world.ChangeLog
	var samplers []*mcmc.Sampler
	for _, w := range []*relstore.DB{db.Clone(), db.Clone(), freshDB} {
		log := world.NewChangeLog(w)
		tg, err := NewTagger(m, ix, log)
		if err != nil {
			t.Fatal(err)
		}
		taggers, logs = append(taggers, tg), append(logs, log)
		samplers = append(samplers, mcmc.NewSampler(tg, 73))
	}
	rel := taggers[0].rel
	for k := NumLabels; k < 256; k++ {
		if err := rel.Intern(LabelCol, "pad"+strconv.Itoa(k)); err != nil {
			t.Fatal(err)
		}
	}
	extra := relstore.RowID(-1)
	for step := 500; step <= 24000; step += 500 {
		for _, s := range samplers {
			s.Run(500)
		}
		if step == 4000 {
			var err error
			tok := relstore.Tuple{relstore.Int(-1), relstore.Int(-1), relstore.String("extra"), relstore.String("wide"), relstore.String("O")}
			if extra, err = logs[0].Insert(TokenRelation, tok); err != nil {
				t.Fatal(err)
			}
			if code := rel.CodeAt(extra, LabelCol); code < 1<<8 || code >= 1<<16 {
				t.Fatalf("the extra row holds LABEL code %d; the vector need not widen from 1 B to 2 B", code)
			}
		}
		for d := range taggers[0].Docs {
			want := labelsOf(taggers[2].Docs[d])
			for k, tg := range taggers[:2] {
				if got := labelsOf(tg.Docs[d]); !slices.Equal(got, want) {
					t.Fatalf("after %d steps, doc %d of chain %d: labels %v, the fresh chain's %v", step, d, k, got, want)
				}
			}
		}
	}
	if a := samplers[0].Accepted(); a == 0 || a != samplers[2].Accepted() {
		t.Fatalf("accepted %d and %d steps", a, samplers[2].Accepted())
	}
	if v, _ := rel.GetCol(extra, LabelCol); v.AsString() != "wide" {
		t.Errorf("the extra row's LABEL went to %v", v)
	}
}

// storedScore scores ld under the labels its world's rows hold, read as
// strings, summing the factors as Section 5.1 lists them.
func storedScore(t *testing.T, m *Model, ld *LabeledDoc) float64 {
	var labels []Label
	for i := range ld.Len() {
		v, _ := ld.t.rel.GetCol(rowOf(ld, i), LabelCol)
		l, ok := ParseLabel(v.AsString())
		if !ok {
			t.Fatalf("row %d holds LABEL %v", rowOf(ld, i), v)
		}
		labels = append(labels, l)
	}
	w := m.W
	var s float64
	for i, l := range labels {
		c := ld.ix.code(i)
		s += w.Get(EmissionKey(int(c), l)) + w.Get(CapsKey(ld.ix.capital[c], l)) + w.Get(BiasKey(l))
		if i > 0 {
			s += w.Get(TransKey(labels[i-1], l))
		}
		for _, q := range partners(ld.ix, i) {
			if int(q) > i {
				s += w.Get(SkipKey(labels[q] == l))
			}
		}
	}
	return s
}

// TestIndexValidation: NewCorpusIndex refuses a world without TOKEN and
// one with a deleted row, which no longer lays the corpus out row by row;
// NewTrainer refuses the world of another corpus, whose TRUTH codes are
// not the index's tokens' gold labels.
func TestIndexValidation(t *testing.T) {
	if _, err := NewCorpusIndex(relstore.NewDB()); err == nil {
		t.Error("a world without TOKEN: NewCorpusIndex accepted it")
	}
	c, _ := Generate(DefaultGenConfig(500, 23))
	db, ix := load(c)
	other, _ := load(&Corpus{Docs: c.Docs[1:]})
	if _, err := NewTrainer(NewModel(ix.NumStrings(), true), ix, other); err == nil {
		t.Error("another corpus's world: NewTrainer accepted it")
	}
	rel, _ := db.Relation(TokenRelation)
	if err := rel.Delete(3); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCorpusIndex(db); err == nil {
		t.Error("a world with a deleted row: NewCorpusIndex accepted it")
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
