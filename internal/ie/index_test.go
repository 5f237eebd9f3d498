package ie

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"factordb/internal/relstore"
	"factordb/internal/world"
)

// load loads c into a fresh world and indexes it.
func load(c *Corpus) (*relstore.DB, *CorpusIndex) {
	db := relstore.NewDB()
	if err := LoadCorpus(db, c, LO); err != nil {
		panic(err)
	}
	ix, err := NewCorpusIndex(db)
	if err != nil {
		panic(err)
	}
	return db, ix
}

// modelFor builds an untrained model with θ sized for c's strings.
func modelFor(c *Corpus, useSkip bool) *Model {
	_, ix := load(c)
	return NewModel(ix.NumStrings(), useSkip)
}

// newTagger builds a trainer over a fresh load of c, every label O. A
// load issues c's STRING codes in the same order every time, so any
// model sized by modelFor(c, …) fits it.
func newTagger(m *Model, c *Corpus) *Tagger {
	db, ix := load(c)
	tg, err := NewTrainer(m, ix, db)
	if err != nil {
		panic(err)
	}
	return tg
}

// retag builds a fresh all-O tagger over the one document ld indexes,
// loading the strings its world's rows hold.
func retag(m *Model, ld *LabeledDoc) *Tagger {
	var doc Doc
	for i := range ld.Len() {
		s, _ := ld.t.rel.GetCol(rowOf(ld, i), stringCol)
		doc.Tokens = append(doc.Tokens, Token{Str: s.AsString()})
	}
	return newTagger(m, &Corpus{Docs: []Doc{doc}})
}

// chainTagger builds a chain's tagger over a fresh load of c, bound to
// its change log.
func chainTagger(t *testing.T, m *Model, c *Corpus) (*Tagger, *world.ChangeLog) {
	t.Helper()
	db, ix := load(c)
	log := world.NewChangeLog(db)
	tg, err := NewTagger(m, ix, log)
	if err != nil {
		t.Fatal(err)
	}
	return tg, log
}

// labelsOf returns the labels of ld's positions.
func labelsOf(ld *LabeledDoc) []Label {
	var out []Label
	for i := range ld.Len() {
		out = append(out, ld.Label(i))
	}
	return out
}

// setLabels writes labels into ld's first positions.
func setLabels(ld *LabeledDoc, labels ...Label) {
	for i, l := range labels {
		ld.set(i, l)
	}
}

// labeledDoc builds the inference state of one standalone document. An
// empty one loads no row, so no DOC_ID run indexes it: it gets an empty
// index.
func labeledDoc(doc *Doc) *LabeledDoc {
	if len(doc.Tokens) == 0 {
		return &LabeledDoc{ix: &docIndex{}}
	}
	return newTagger(NewModel(0, false), &Corpus{Docs: []Doc{*doc}}).Docs[0]
}

// rowOf returns the TOKEN row LoadCorpus gave position i of ld.
func rowOf(ld *LabeledDoc, i int) relstore.RowID { return relstore.RowID(ld.ix.first + i) }

// TestIndexSkipOrder pins the skip adjacency against the per-position
// lists the walk read before the index existed: the same partners in the
// same order at every position, so every walk stays bit-identical.
func TestIndexSkipOrder(t *testing.T) {
	c, err := Generate(DefaultGenConfig(3000, 7))
	if err != nil {
		t.Fatal(err)
	}
	_, ix := load(c)
	edges := 0
	for d := range c.Docs {
		want := referenceSkip(&c.Docs[d])
		x := &ix.docs[d]
		for i := range want {
			if got := partners(x, i); !slices.Equal(got, want[i]) {
				t.Fatalf("doc %d position %d: partners %v, want %v", d, i, got, want[i])
			}
			edges += len(want[i])
		}
	}
	if edges == 0 {
		t.Fatal("corpus has no skip edges; the check proves nothing")
	}
}

// TestIndexCliques builds the cliques of hand-built documents. A
// capitalized string at one position and a lowercase one at several form
// none; two interleaved capitalized strings form two, numbered by first
// position, each listing its members ascending. A document of 300
// cliques, past one byte per clique number, indexes, matches
// referenceSkip, and scores every relabeling by ScoreDelta as DocScore
// does.
func TestIndexCliques(t *testing.T) {
	docOf := func(strs ...string) *Doc {
		doc := &Doc{}
		for _, s := range strs {
			doc.Tokens = append(doc.Tokens, Token{Str: s})
		}
		return doc
	}
	matchesReference := func(doc *Doc, x *docIndex) {
		t.Helper()
		for i, want := range referenceSkip(doc) {
			if got := partners(x, i); !slices.Equal(got, want) {
				t.Fatalf("position %d: partners %v, want %v", i, got, want)
			}
		}
	}

	doc := docOf("Alpha", "the", "Bravo", "the", "Charlie", "Bravo", "the", "Charlie", "Bravo")
	x := labeledDoc(doc).ix
	wantClique := []int{0, 0, 1, 0, 2, 1, 0, 2, 1}
	for i, want := range wantClique {
		if got := x.cliques.at(i); got != want {
			t.Errorf("position %d %q: clique %d, want %d", i, doc.Tokens[i].Str, got, want)
		}
	}
	for _, want := range [][]int{{2, 5, 8}, {4, 7}} {
		var got []int
		for j, end := x.clique(want[0]); j < end; j++ {
			got = append(got, x.member.at(j))
		}
		if !slices.Equal(got, want) {
			t.Errorf("clique of position %d: members %v, want %v", want[0], got, want)
		}
	}
	matchesReference(doc, x)

	const cliques = 300
	var strs []string
	for range 2 {
		for c := range cliques {
			strs = append(strs, fmt.Sprintf("Name%d", c), "the")
		}
	}
	doc = docOf(strs...)
	m := modelFor(&Corpus{Docs: []Doc{*doc}}, true)
	ld := newTagger(m, &Corpus{Docs: []Doc{*doc}}).Docs[0]
	x = ld.ix
	if got := x.cliques.at(len(strs) - 2); got != cliques {
		t.Fatalf("last capitalized position: clique %d, want %d", got, cliques)
	}
	matchesReference(doc, x)
	rng := rand.New(rand.NewSource(9))
	for a := Label(0); a < NumLabels; a++ {
		m.W.Set(BiasKey(a), rng.NormFloat64())
		for b := Label(0); b < NumLabels; b++ {
			m.W.Set(TransKey(a, b), rng.NormFloat64())
		}
	}
	m.W.Set(SkipKey(true), 1.3)
	m.W.Set(SkipKey(false), -0.7)
	for i := range ld.Len() {
		ld.set(i, Label(rng.Intn(NumLabels)))
	}
	for trial := range 200 {
		i, newL := rng.Intn(ld.Len()), Label(rng.Intn(NumLabels))
		before, delta, old := m.DocScore(ld), m.ScoreDelta(ld, i, newL), ld.Label(i)
		ld.set(i, newL)
		if after := m.DocScore(ld); math.Abs(delta-(after-before)) > 1e-9 {
			t.Fatalf("trial %d position %d %v->%v: ScoreDelta %v, DocScore moved %v", trial, i, old, newL, delta, after-before)
		}
	}
}

// TestIndexReadsTheLoad: on a fresh load every token's STRING code, which
// the index borrows, is its string's first-use number over the corpus,
// its TRUTH code is its gold Label, its code's capitalisation flag is its
// string's and its row is first+i. So the model reads from the TOKEN
// vectors the string ids, flags and gold labels it was trained on.
func TestIndexReadsTheLoad(t *testing.T) {
	for _, seed := range []int64{1, 5, 7} {
		c, err := Generate(DefaultGenConfig(50000, seed))
		if err != nil {
			t.Fatal(err)
		}
		db, ix := load(c)
		tg, err := NewTrainer(NewModel(ix.NumStrings(), true), ix, db)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := db.Relation(TokenRelation)
		ids := make(map[string]uint32)
		row := 0
		if ix.NumDocs() != len(c.Docs) {
			t.Fatalf("seed %d: %d documents indexed, the corpus has %d", seed, ix.NumDocs(), len(c.Docs))
		}
		for d, doc := range c.Docs {
			x := &ix.docs[d]
			if x.first != row || x.end-x.first != len(doc.Tokens) {
				t.Fatalf("seed %d doc %d: indexed as rows %d+%d, loaded as %d+%d", seed, d, x.first, x.end-x.first, row, len(doc.Tokens))
			}
			for i, tok := range doc.Tokens {
				id, ok := ids[tok.Str]
				if !ok {
					id = uint32(len(ids))
					ids[tok.Str] = id
				}
				code := x.code(i)
				str, _ := rel.GetCol(relstore.RowID(x.first+i), stringCol)
				docID, _ := rel.GetCol(relstore.RowID(x.first+i), docCol)
				switch {
				case code != id:
					t.Fatalf("seed %d doc %d tok %d %q: STRING code %d, first-use id %d", seed, d, i, tok.Str, code, id)
				case tg.goldOf(tg.Docs[d], i) != tok.Gold:
					t.Fatalf("seed %d doc %d tok %d: TRUTH reads %v, gold %v", seed, d, i, tg.goldOf(tg.Docs[d], i), tok.Gold)
				case x.capital[code] != IsCapitalized(tok.Str):
					t.Fatalf("seed %d doc %d tok %d %q: capitalisation flag %v", seed, d, i, tok.Str, x.capital[code])
				case str.AsString() != tok.Str || docID.AsInt() != int64(doc.ID):
					t.Fatalf("seed %d doc %d tok %d: row %d holds %v in document %v", seed, d, i, x.first+i, str, docID)
				}
			}
			row += len(doc.Tokens)
		}
		if ix.NumStrings() != len(ids) || ix.NumTokens() != row {
			t.Fatalf("seed %d: %d strings and %d tokens indexed, the corpus has %d and %d", seed, ix.NumStrings(), ix.NumTokens(), len(ids), row)
		}
	}
}

// partners rebuilds the skip partners of position i of x from its clique:
// the clique's other members, ascending.
func partners(x *docIndex, i int) []int32 {
	var out []int32
	for j, end := x.clique(i); j < end; j++ {
		if q := x.member.at(j); q != i {
			out = append(out, int32(q))
		}
	}
	return out
}

// referenceSkip is the adjacency as built per document before the shared
// index: every other position with the same capitalized string, in
// position order.
func referenceSkip(doc *Doc) [][]int32 {
	skip := make([][]int32, len(doc.Tokens))
	byStr := make(map[string][]int32)
	for i, t := range doc.Tokens {
		if IsCapitalized(t.Str) {
			byStr[t.Str] = append(byStr[t.Str], int32(i))
		}
	}
	for _, positions := range byStr {
		for _, p := range positions {
			for _, q := range positions {
				if p != q {
					skip[p] = append(skip[p], q)
				}
			}
		}
	}
	return skip
}

// TestTaggerAllocBudget is the allocation gate of a tagger over a shared
// index (testdata/alloc_budget.txt): a chain's tagger owns its labels and
// a header per document, and reads everything else from the index. The
// count comes from testing.AllocsPerRun and the bytes are the least of a
// few batches, so an allocation elsewhere in the process during one batch
// does not count against the tagger.
func TestTaggerAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget gate skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under -race; CI's alloc job runs this gate without it")
	}
	budget := readBudget(t)
	c, err := Generate(DefaultGenConfig(5000, 1))
	if err != nil {
		t.Fatal(err)
	}
	db, ix := load(c)
	m := NewModel(ix.NumStrings(), true)
	log := world.NewChangeLog(db)
	first, _ := NewTagger(m, ix, log)
	tg, err := NewTagger(m, ix, log)
	if err != nil {
		t.Fatal(err)
	}
	if tg.Index != first.Index || tg.Docs[0].ix != first.Docs[0].ix {
		t.Fatal("a second tagger must share the index")
	}

	const runs, batches = 20, 5
	allocs := testing.AllocsPerRun(runs, func() { taggerSink, _ = NewTagger(m, ix, log) })
	perToken := math.Inf(1)
	for range batches {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			taggerSink, _ = NewTagger(m, ix, log)
		}
		runtime.ReadMemStats(&after)
		perToken = min(perToken, float64(after.TotalAlloc-before.TotalAlloc)/runs/float64(c.NumTokens))
	}
	t.Logf("NewTagger over %d tokens in %d documents: %.1f allocs, %.3f B/token",
		c.NumTokens, len(c.Docs), allocs, perToken)
	if max := budget["tagger_allocs"]; allocs > max {
		t.Errorf("NewTagger allocates %.1f times, budget %v", allocs, max)
	}
	if max := budget["tagger_bytes_per_token"]; perToken > max {
		t.Errorf("NewTagger allocates %.3f B per token, budget %v", perToken, max)
	}
}

// taggerSink keeps the taggers TestTaggerAllocBudget builds on the heap.
var taggerSink *Tagger

// readBudget reads the named ceilings from testdata/alloc_budget.txt.
func readBudget(t *testing.T) map[string]float64 {
	t.Helper()
	data, err := os.ReadFile("testdata/alloc_budget.txt")
	if err != nil {
		t.Fatalf("reading alloc budget: %v", err)
	}
	budget := make(map[string]float64)
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		n, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if !ok || err != nil {
			t.Fatalf("parsing alloc budget line %q", line)
		}
		budget[name] = n
	}
	return budget
}
