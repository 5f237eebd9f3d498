package ie

import (
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// newTagger builds a tagger over a fresh index of c against m's
// vocabulary, every label O.
func newTagger(m *Model, c *Corpus) *Tagger {
	return NewTagger(m, NewCorpusIndex(c, m.Vocab), LO)
}

// retag builds a fresh all-O tagger over the one document ld indexes.
func retag(m *Model, ld *LabeledDoc) *Tagger {
	return NewTagger(m, &CorpusIndex{vocab: m.Vocab, docs: []docIndex{*ld.ix}, tokens: len(ld.Labels)}, LO)
}

// labeledDoc builds the inference state of one standalone document.
func labeledDoc(doc *Doc, v *Vocab) *LabeledDoc {
	return newTagger(NewModel(v, false), &Corpus{Docs: []Doc{*doc}}).Docs[0]
}

// TestIndexSkipOrder pins the skip adjacency against the per-position
// lists the walk read before the index existed: the same partners in the
// same order at every position, so every walk stays bit-identical.
func TestIndexSkipOrder(t *testing.T) {
	c, err := Generate(DefaultGenConfig(3000, 7))
	if err != nil {
		t.Fatal(err)
	}
	v := BuildVocab(c)
	ix := NewCorpusIndex(c, v)
	edges := 0
	for d := range c.Docs {
		want := referenceSkip(&c.Docs[d], v)
		x := &ix.docs[d]
		for i := range want {
			if got := x.partners(i); !slices.Equal(got, want[i]) {
				t.Fatalf("doc %d position %d: partners %v, want %v", d, i, got, want[i])
			}
			edges += len(want[i])
		}
	}
	if edges == 0 {
		t.Fatal("corpus has no skip edges; the check proves nothing")
	}
}

// referenceSkip is the adjacency as built per document before the shared
// index: every other position with the same capitalized string, in
// position order.
func referenceSkip(doc *Doc, v *Vocab) [][]int32 {
	skip := make([][]int32, len(doc.Tokens))
	byStr := make(map[int][]int32)
	for i, t := range doc.Tokens {
		if IsCapitalized(t.Str) {
			id := v.Intern(t.Str)
			byStr[id] = append(byStr[id], int32(i))
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
// a header per document, and reads everything else from the index.
func TestTaggerAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget gate skipped in -short mode")
	}
	budget := readBudget(t)
	c, err := Generate(DefaultGenConfig(5000, 1))
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(BuildVocab(c), true)
	ix := NewCorpusIndex(c, m.Vocab)
	first := NewTagger(m, ix, LO)

	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range runs {
		tg := NewTagger(m, ix, LO)
		if tg.Index != first.Index || tg.Docs[0].ix != first.Docs[0].ix || &tg.Docs[0].Labels[0] == &first.Docs[0].Labels[0] {
			t.Fatal("a second tagger must share the index and own its labels")
		}
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	perToken := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(c.NumTokens)
	t.Logf("NewTagger over %d tokens in %d documents: %.1f allocs, %.3f B/token",
		c.NumTokens, len(c.Docs), allocs, perToken)
	if max := budget["tagger_allocs"]; allocs > max {
		t.Errorf("NewTagger allocates %.1f times, budget %v", allocs, max)
	}
	if max := budget["tagger_bytes_per_token"]; perToken > max {
		t.Errorf("NewTagger allocates %.3f B per token, budget %v", perToken, max)
	}
}

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
