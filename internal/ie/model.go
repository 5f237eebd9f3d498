package ie

import (
	"unicode"

	"factordb/internal/learn"
)

// The feature index space: capitalization, bias, transition and skip
// take the first 110 slots of θ, then each (string id, label) has one
// emission slot, so θ grows with the strings by appending.
const (
	offCaps  = 0                              // [capitalized][label]
	offBias  = offCaps + 2*NumLabels          // [label]
	offTrans = offBias + NumLabels            // [prev][next]
	offSkip  = offTrans + NumLabels*NumLabels // [labels agree]
	offEmit  = offSkip + 2                    // [string id][label]
)

// EmissionKey is the index of the emission feature for (string id, label).
func EmissionKey(strID int, l Label) int { return offEmit + strID*NumLabels + int(l) }

// TransKey is the index of the first-order transition feature for
// (prev, next).
func TransKey(prev, next Label) int { return offTrans + int(prev)*NumLabels + int(next) }

// BiasKey is the index of the per-label bias feature.
func BiasKey(l Label) int { return offBias + int(l) }

// SkipKey is the index of the skip-edge feature: same=true when the two
// endpoint labels agree.
func SkipKey(same bool) int { return offSkip + b2i(same) }

// CapsKey is the index of the capitalization feature for (capitalized,
// label).
func CapsKey(caps bool, l Label) int { return offCaps + b2i(caps)*NumLabels + int(l) }

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Model is the skip-chain conditional random field of Section 5.1: a
// linear-chain CRF (emission, capitalization, transition and bias factor
// templates) plus skip factors connecting identically spelled capitalized
// tokens within a document. The skip edges make the unrolled graph loopy,
// so exact inference is intractable — which is exactly the regime the
// paper's MCMC evaluator targets.
//
// W is the dense parameter vector θ in the layout of the *Key functions:
// SampleRank trains it in place and every score reads it, so one factor
// costs one array index. It is read-only once chains on several
// goroutines share the model.
type Model struct {
	W       *learn.Weights
	UseSkip bool
}

// theta is θ as scoring reads it, one method per factor template. The
// methods spell out the *Key index arithmetic rather than call it, which
// keeps nodeScore within the compiler's inlining budget.
type theta []float64

// emit returns the emission weight of (string id, label); a string id
// past those θ was sized for has no weight.
func (t theta) emit(strID int32, l Label) float64 {
	if i := offEmit + int(strID)*NumLabels + int(l); i < len(t) {
		return t[i]
	}
	return 0
}

func (t theta) caps(caps bool, l Label) float64 { return t[offCaps+b2i(caps)*NumLabels+int(l)] }
func (t theta) bias(l Label) float64            { return t[offBias+int(l)] }
func (t theta) trans(prev, next Label) float64  { return t[offTrans+int(prev)*NumLabels+int(next)] }
func (t theta) skip(same bool) float64          { return t[offSkip+b2i(same)] }

// theta returns θ for scoring.
func (m *Model) theta() theta { return theta(*m.W) }

// NewModel builds an untrained model with θ sized for string ids below
// strings — an index's NumStrings.
func NewModel(strings int, useSkip bool) *Model {
	w := make(learn.Weights, offEmit+strings*NumLabels)
	return &Model{W: &w, UseSkip: useSkip}
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
// changes: each token's string id, capitalization and gold label, and
// the skip adjacency. It is a pure function of the corpus, so one copy
// (a CorpusIndex) serves the trainer, the prototype and every chain,
// read-only.
type docIndex struct {
	first  int // offset in the corpus-wide arrays: token i is TOKEN row first+i
	strIDs []int32
	caps   []bool
	gold   []Label
	// The skip partners of position i — the other positions sharing its
	// capitalized string, ascending — are skip[skipOff[i]:skipOff[i+1]].
	skipOff []int32
	skip    []int32
}

// partners returns the skip partners of position i.
func (x *docIndex) partners(i int) []int32 { return x.skip[x.skipOff[i]:x.skipOff[i+1]] }

// CorpusIndex is the docIndex of every document of a corpus, laid out in
// five corpus-wide arrays that each document's index slices. It keeps no
// reference to the corpus, nor its strings: the store holds them.
type CorpusIndex struct {
	docs    []docIndex
	tokens  int
	strings int
}

// NumDocs returns the number of documents indexed.
func (ix *CorpusIndex) NumDocs() int { return len(ix.docs) }

// NumTokens returns the number of tokens indexed.
func (ix *CorpusIndex) NumTokens() int { return ix.tokens }

// NumStrings returns the number of distinct strings, whose ids run from 0.
func (ix *CorpusIndex) NumStrings() int { return ix.strings }

// NewCorpusIndex indexes every document of c, issuing string ids in
// order of first use. Build it once per corpus and hand it to every
// NewTagger over that corpus.
func NewCorpusIndex(c *Corpus) *CorpusIndex {
	n := 0
	for d := range c.Docs {
		n += len(c.Docs[d].Tokens)
	}
	ix := &CorpusIndex{docs: make([]docIndex, len(c.Docs)), tokens: n}
	strIDs, caps, gold := make([]int32, n), make([]bool, n), make([]Label, n)
	offs := make([]int32, n+len(c.Docs))
	ids := make(map[string]int32)
	var skip []int32
	for d := range c.Docs {
		toks := c.Docs[d].Tokens
		k := len(toks)
		x := &ix.docs[d]
		x.first = n - len(strIDs)
		x.strIDs, x.caps, x.gold, x.skipOff = strIDs[:k:k], caps[:k:k], gold[:k:k], offs[:k+1:k+1]
		strIDs, caps, gold, offs = strIDs[k:], caps[k:], gold[k:], offs[k+1:]
		byStr := make(map[int32][]int32)
		for i, t := range toks {
			id, ok := ids[t.Str]
			if !ok {
				id = int32(len(ids))
				ids[t.Str] = id
			}
			x.strIDs[i], x.gold[i] = id, t.Gold
			if x.caps[i] = IsCapitalized(t.Str); x.caps[i] {
				byStr[id] = append(byStr[id], int32(i))
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
	ix.strings = len(ids)
	return ix
}

// LabeledDoc is a document with a current label hypothesis: the in-memory
// working copy of the hidden variables that the paper keeps in main memory
// while the DBMS holds the tuples (Section 5). Labels is the only part a
// tagger owns; everything else is read from the shared document index.
type LabeledDoc struct {
	Labels []Label
	ix     *docIndex
}

// SkipDegree returns the number of skip partners of position i.
func (ld *LabeledDoc) SkipDegree(i int) int { return len(ld.ix.partners(i)) }

// localFeatures accumulates sign×φ for every factor touching position i
// under label l into d. It covers emission, capitalization, bias, the two
// incident transitions and all incident skip edges — the only factors
// whose value changes when position i changes (Appendix 9.2).
func (m *Model) localFeatures(d *learn.Delta, ld *LabeledDoc, i int, l Label, sign float64) {
	d.Add(EmissionKey(int(ld.ix.strIDs[i]), l), sign)
	d.Add(CapsKey(ld.ix.caps[i], l), sign)
	d.Add(BiasKey(l), sign)
	if i > 0 {
		d.Add(TransKey(ld.Labels[i-1], l), sign)
	}
	if i+1 < len(ld.Labels) {
		d.Add(TransKey(l, ld.Labels[i+1]), sign)
	}
	if m.UseSkip {
		for _, q := range ld.ix.partners(i) {
			d.Add(SkipKey(ld.Labels[q] == l), sign)
		}
	}
}

// nodeScore sums the factors private to position i under label l:
// emission, capitalization and bias.
func (t theta) nodeScore(ld *LabeledDoc, i int, l Label) float64 {
	return t.emit(ld.ix.strIDs[i], l) + t.caps(ld.ix.caps[i], l) + t.bias(l)
}

// localScore sums θ·φ over the factors touching position i under label l,
// in the same order as localFeatures lists them.
func (m *Model) localScore(t theta, ld *LabeledDoc, i int, l Label) float64 {
	s := t.nodeScore(ld, i, l)
	if i > 0 {
		s += t.trans(ld.Labels[i-1], l)
	}
	if i+1 < len(ld.Labels) {
		s += t.trans(l, ld.Labels[i+1])
	}
	if m.UseSkip {
		for _, q := range ld.ix.partners(i) {
			s += t.skip(ld.Labels[q] == l)
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
	t := m.theta()
	return m.localScore(t, ld, i, newLabel) - m.localScore(t, ld, i, old)
}

// FeatureDelta accumulates φ(w') − φ(w) for the same relabeling into d,
// used by SampleRank training.
func (m *Model) FeatureDelta(d *learn.Delta, ld *LabeledDoc, i int, newLabel Label) {
	if old := ld.Labels[i]; newLabel != old {
		m.localFeatures(d, ld, i, old, -1)
		m.localFeatures(d, ld, i, newLabel, +1)
	}
}

// DocScore computes the full unnormalized log score of a document under
// the current hypothesis. Used only by tests and diagnostics; inference
// never needs it.
func (m *Model) DocScore(ld *LabeledDoc) float64 {
	t := m.theta()
	var s float64
	for i, l := range ld.Labels {
		s += t.nodeScore(ld, i, l)
		if i > 0 {
			s += t.trans(ld.Labels[i-1], l)
		}
	}
	if m.UseSkip {
		// Each unordered skip pair counts once.
		for i := range ld.Labels {
			for _, q := range ld.ix.partners(i) {
				if int32(i) < q {
					s += t.skip(ld.Labels[q] == ld.Labels[i])
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
