package ie

import (
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"factordb/internal/relstore"
)

// modelFor builds an untrained model with θ sized for c's strings.
func modelFor(c *Corpus, useSkip bool) *Model {
	return NewModel(NewCorpusIndex(c).NumStrings(), useSkip)
}

// newTagger builds a tagger over a fresh index of c, every label O. The
// index issues c's string ids in the same order every time, so any model
// sized by modelFor(c, …) fits it.
func newTagger(m *Model, c *Corpus) *Tagger {
	return NewTagger(m, NewCorpusIndex(c), LO)
}

// retag builds a fresh all-O tagger over the one document ld indexes.
func retag(m *Model, ld *LabeledDoc) *Tagger {
	x := *ld.ix
	x.first = 0
	return NewTagger(m, &CorpusIndex{docs: []docIndex{x}, tokens: len(ld.Labels)}, LO)
}

// labeledDoc builds the inference state of one standalone document.
func labeledDoc(doc *Doc) *LabeledDoc {
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
	ix := NewCorpusIndex(c)
	edges := 0
	for d := range c.Docs {
		want := referenceSkip(&c.Docs[d])
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
	budget := readBudget(t)
	c, err := Generate(DefaultGenConfig(5000, 1))
	if err != nil {
		t.Fatal(err)
	}
	ix := NewCorpusIndex(c)
	m := NewModel(ix.NumStrings(), true)
	first, tg := NewTagger(m, ix, LO), NewTagger(m, ix, LO)
	if tg.Index != first.Index || tg.Docs[0].ix != first.Docs[0].ix || &tg.Docs[0].Labels[0] == &first.Docs[0].Labels[0] {
		t.Fatal("a second tagger must share the index and own its labels")
	}

	const runs, batches = 20, 5
	allocs := testing.AllocsPerRun(runs, func() { taggerSink = NewTagger(m, ix, LO) })
	perToken := math.Inf(1)
	for range batches {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			taggerSink = NewTagger(m, ix, LO)
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
