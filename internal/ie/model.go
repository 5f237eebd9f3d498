package ie

import (
	"unicode"

	"factordb/internal/learn"
)

// Feature-template identifiers packed into the high byte of feature keys.
const (
	tplEmission uint64 = 1 // (string id, label)
	tplTrans    uint64 = 2 // (label, label)
	tplBias     uint64 = 3 // (label)
	tplSkip     uint64 = 4 // (same/different label)
	tplCaps     uint64 = 5 // (capitalized?, label)
)

// EmissionKey packs the emission feature for (string id, label).
func EmissionKey(strID int, l Label) uint64 {
	return tplEmission<<56 | uint64(strID)<<8 | uint64(l)
}

// TransKey packs the first-order transition feature for (prev, next).
func TransKey(prev, next Label) uint64 {
	return tplTrans<<56 | uint64(prev)<<8 | uint64(next)
}

// BiasKey packs the per-label bias feature.
func BiasKey(l Label) uint64 { return tplBias<<56 | uint64(l) }

// SkipKey packs the skip-edge feature: same=true when the two endpoint
// labels agree.
func SkipKey(same bool) uint64 {
	if same {
		return tplSkip<<56 | 1
	}
	return tplSkip << 56
}

// CapsKey packs the capitalization feature for (capitalized, label).
func CapsKey(caps bool, l Label) uint64 {
	k := tplCaps<<56 | uint64(l)
	if caps {
		k |= 1 << 16
	}
	return k
}

// Model is the skip-chain conditional random field of Section 5.1: a
// linear-chain CRF (emission, capitalization, transition and bias factor
// templates) plus skip factors connecting identically spelled capitalized
// tokens within a document. The skip edges make the unrolled graph loopy,
// so exact inference is intractable — which is exactly the regime the
// paper's MCMC evaluator targets.
//
// W is the sparse parameter vector SampleRank trains. Scoring never probes
// it: every score is read from dense per-template tables compiled from W
// (Compile), so one factor costs one array index.
type Model struct {
	W       *learn.Weights
	Vocab   *Vocab
	UseSkip bool

	tab *scoreTables
}

// scoreTables is θ laid out for array indexing, one table per factor
// template.
type scoreTables struct {
	version  uint64    // W.Version() the tables were compiled at
	emission []float64 // [string id × NumLabels + label]
	caps     [2][NumLabels]float64
	bias     [NumLabels]float64
	trans    [NumLabels][NumLabels]float64 // [prev][next]
	skip     [2]float64                    // [labels agree]
}

// emit returns the emission weight of (string id, label); strings
// interned after the tables were compiled have no weight yet.
func (t *scoreTables) emit(strID int, l Label) float64 {
	if i := strID*NumLabels + int(l); i < len(t.emission) {
		return t.emission[i]
	}
	return 0
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Compile lays the current weights out in the dense scoring tables.
// Scoring does this by itself whenever W has moved (through Set or
// Update) since the last compile; call it explicitly once the weights
// are final and before the model is shared between goroutines, so that
// concurrent chains only ever read the tables.
func (m *Model) Compile() {
	w, n := m.W, m.Vocab.Size()
	t := &scoreTables{version: w.Version(), emission: make([]float64, n*NumLabels)}
	for l := Label(0); l < NumLabels; l++ {
		for id := 0; id < n; id++ {
			t.emission[id*NumLabels+int(l)] = w.Get(EmissionKey(id, l))
		}
		t.caps[0][l] = w.Get(CapsKey(false, l))
		t.caps[1][l] = w.Get(CapsKey(true, l))
		t.bias[l] = w.Get(BiasKey(l))
		for next := Label(0); next < NumLabels; next++ {
			t.trans[l][next] = w.Get(TransKey(l, next))
		}
	}
	t.skip[0], t.skip[1] = w.Get(SkipKey(false)), w.Get(SkipKey(true))
	m.tab = t
}

// tables returns the scoring tables, recompiling them if W has moved.
func (m *Model) tables() *scoreTables {
	if m.tab == nil || m.tab.version != m.W.Version() {
		m.Compile()
	}
	return m.tab
}

// NewModel builds an untrained model over the vocabulary.
func NewModel(v *Vocab, useSkip bool) *Model {
	return &Model{W: learn.NewWeights(), Vocab: v, UseSkip: useSkip}
}

// IsCapitalized reports whether the token string starts with an uppercase
// letter; only capitalized tokens participate in skip edges (following
// Sutton & McCallum's skip-chain formulation).
func IsCapitalized(s string) bool {
	for _, r := range s {
		return unicode.IsUpper(r)
	}
	return false
}

// docIndex is the half of a document's inference state that no label flip
// changes: each token's vocabulary id and capitalization, and the skip
// adjacency. It is a pure function of the document and the vocabulary, so
// one copy (a CorpusIndex) serves the trainer, the prototype and every
// chain, read-only.
type docIndex struct {
	strIDs []int32
	caps   []bool
	// The skip partners of position i — the other positions sharing its
	// capitalized string, ascending — are skip[skipOff[i]:skipOff[i+1]].
	skipOff []int32
	skip    []int32
}

// partners returns the skip partners of position i.
func (x *docIndex) partners(i int) []int32 { return x.skip[x.skipOff[i]:x.skipOff[i+1]] }

// CorpusIndex is the docIndex of every document of a corpus, laid out in
// four corpus-wide arrays that each document's index slices.
type CorpusIndex struct {
	Corpus *Corpus
	docs   []docIndex
}

// NewCorpusIndex indexes every document of c against v, interning any
// string v does not hold yet. Build it once per (corpus, vocabulary) and
// hand it to every NewTagger over that corpus.
func NewCorpusIndex(c *Corpus, v *Vocab) *CorpusIndex {
	n := 0
	for d := range c.Docs {
		n += len(c.Docs[d].Tokens)
	}
	ix := &CorpusIndex{Corpus: c, docs: make([]docIndex, len(c.Docs))}
	strIDs, caps := make([]int32, n), make([]bool, n)
	offs := make([]int32, n+len(c.Docs))
	var skip []int32
	for d := range c.Docs {
		toks := c.Docs[d].Tokens
		k := len(toks)
		x := &ix.docs[d]
		x.strIDs, x.caps, x.skipOff = strIDs[:k:k], caps[:k:k], offs[:k+1:k+1]
		strIDs, caps, offs = strIDs[k:], caps[k:], offs[k+1:]
		byStr := make(map[int32][]int32)
		for i, t := range toks {
			x.strIDs[i] = int32(v.Intern(t.Str))
			if x.caps[i] = IsCapitalized(t.Str); x.caps[i] {
				byStr[x.strIDs[i]] = append(byStr[x.strIDs[i]], int32(i))
			}
		}
		for p := range toks {
			x.skipOff[p] = int32(len(skip))
			if !x.caps[p] {
				continue
			}
			if group := byStr[x.strIDs[p]]; len(group) > 1 {
				for _, q := range group {
					if q != int32(p) {
						skip = append(skip, q)
					}
				}
			}
		}
		x.skipOff[k] = int32(len(skip))
	}
	for d := range ix.docs {
		ix.docs[d].skip = skip
	}
	return ix
}

// LabeledDoc is a document with a current label hypothesis: the in-memory
// working copy of the hidden variables that the paper keeps in main memory
// while the DBMS holds the tuples (Section 5). Labels is the only part a
// tagger owns; everything else is read from the shared document index.
type LabeledDoc struct {
	Doc    *Doc
	Labels []Label
	ix     *docIndex
}

// SkipDegree returns the number of skip partners of position i.
func (ld *LabeledDoc) SkipDegree(i int) int { return len(ld.ix.partners(i)) }

// localFeatures accumulates sign×φ for every factor touching position i
// under label l into fv. It covers emission, capitalization, bias, the two
// incident transitions and all incident skip edges — the only factors
// whose value changes when position i changes (Appendix 9.2).
func (m *Model) localFeatures(fv learn.FeatureVector, ld *LabeledDoc, i int, l Label, sign float64) {
	fv.Add(EmissionKey(int(ld.ix.strIDs[i]), l), sign)
	fv.Add(CapsKey(ld.ix.caps[i], l), sign)
	fv.Add(BiasKey(l), sign)
	if i > 0 {
		fv.Add(TransKey(ld.Labels[i-1], l), sign)
	}
	if i+1 < len(ld.Labels) {
		fv.Add(TransKey(l, ld.Labels[i+1]), sign)
	}
	if m.UseSkip {
		for _, q := range ld.ix.partners(i) {
			fv.Add(SkipKey(ld.Labels[q] == l), sign)
		}
	}
}

// nodeScore sums the factors private to position i under label l:
// emission, capitalization and bias.
func (t *scoreTables) nodeScore(ld *LabeledDoc, i int, l Label) float64 {
	return t.emit(int(ld.ix.strIDs[i]), l) + t.caps[b2i(ld.ix.caps[i])][l] + t.bias[l]
}

// localScore sums θ·φ over the factors touching position i under label l,
// in the same order as localFeatures lists them.
func (m *Model) localScore(t *scoreTables, ld *LabeledDoc, i int, l Label) float64 {
	s := t.nodeScore(ld, i, l)
	if i > 0 {
		s += t.trans[ld.Labels[i-1]][l]
	}
	if i+1 < len(ld.Labels) {
		s += t.trans[l][ld.Labels[i+1]]
	}
	if m.UseSkip {
		for _, q := range ld.ix.partners(i) {
			s += t.skip[b2i(ld.Labels[q] == l)]
		}
	}
	return s
}

// ScoreDelta returns log π(w') − log π(w) for relabeling position i of ld
// to newLabel. Only the factors adjacent to the changed variable are
// computed; everything else cancels in the MH ratio. The cost is constant
// in the database size (plus the skip degree of the token).
func (m *Model) ScoreDelta(ld *LabeledDoc, i int, newLabel Label) float64 {
	old := ld.Labels[i]
	if newLabel == old {
		return 0
	}
	t := m.tables()
	return m.localScore(t, ld, i, newLabel) - m.localScore(t, ld, i, old)
}

// FeatureDelta returns φ(w') − φ(w) for the same relabeling, used by
// SampleRank training.
func (m *Model) FeatureDelta(ld *LabeledDoc, i int, newLabel Label) learn.FeatureVector {
	fv := make(learn.FeatureVector)
	old := ld.Labels[i]
	if newLabel == old {
		return fv
	}
	m.localFeatures(fv, ld, i, old, -1)
	m.localFeatures(fv, ld, i, newLabel, +1)
	return fv
}

// DocScore computes the full unnormalized log score of a document under
// the current hypothesis. Used only by tests and diagnostics; inference
// never needs it.
func (m *Model) DocScore(ld *LabeledDoc) float64 {
	t := m.tables()
	var s float64
	for i, l := range ld.Labels {
		s += t.nodeScore(ld, i, l)
		if i > 0 {
			s += t.trans[ld.Labels[i-1]][l]
		}
	}
	if m.UseSkip {
		// Each unordered skip pair counts once.
		for i := range ld.Labels {
			for _, q := range ld.ix.partners(i) {
				if int32(i) < q {
					s += t.skip[b2i(ld.Labels[q] == ld.Labels[i])]
				}
			}
		}
	}
	return s
}

// FactorsTouched returns how many factor evaluations one ScoreDelta at
// position i costs: the per-step scoring work behind the README's "The
// walk step" (pinned by TestFactorsTouchedCounts).
func (m *Model) FactorsTouched(ld *LabeledDoc, i int) int {
	n := 3 // emission + caps + bias
	if i > 0 {
		n++
	}
	if i+1 < len(ld.Labels) {
		n++
	}
	if m.UseSkip {
		n += ld.SkipDegree(i)
	}
	return 2 * n // evaluated under both the old and the new label
}
