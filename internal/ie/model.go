package ie

import (
	"fmt"
	"slices"
	"unicode"

	"factordb/internal/learn"
	"factordb/internal/relstore"
)

// The feature index space: capitalization, bias, transition and skip
// take the first 110 slots of θ, then each (STRING code, label) has one
// emission slot, so θ grows with the strings by appending.
const (
	offCaps  = 0                              // [capitalized][label]
	offBias  = offCaps + 2*NumLabels          // [label]
	offTrans = offBias + NumLabels            // [prev][next]
	offSkip  = offTrans + NumLabels*NumLabels // [labels agree]
	offEmit  = offSkip + 2                    // [STRING code][label]
)

// EmissionKey is the index of the emission feature for (code, label).
func EmissionKey(code int, l Label) int { return offEmit + code*NumLabels + int(l) }

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

// emit returns the emission weight of (string, label): a string's row is
// its STRING code, and a code past those θ was sized for has no weight.
func (t theta) emit(code uint32, l Label) float64 {
	if i := offEmit + int(code)*NumLabels + int(l); i < len(t) {
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

// NewModel builds an untrained model with θ sized for STRING codes below
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
// changes, shared read-only by every tagger (see CorpusIndex). Its skip
// edges are cliques: each capitalized string at two or more of its
// positions is one clique, numbered from 1 in order of its first
// position, and every two members of a clique share a skip edge. A
// position's partners are its clique's other members, ascending.
type docIndex struct {
	first, end int            // token i is TOKEN row first+i, below end
	codes      relstore.Slots // by row: the token's STRING code
	capital    []bool         // by code: the string is capitalized
	cliques    narrow         // by position: its clique number, 0 for none
	// Clique c's members, ascending, are member[start[c-1]:start[c]].
	start  []int32
	member narrow
}

// clique returns the bounds in x.member of the clique of position i,
// which is among them; they are equal for a position in no clique.
func (x *docIndex) clique(i int) (lo, hi int) {
	if c := x.cliques.at(i); c != 0 {
		return int(x.start[c-1]), int(x.start[c])
	}
	return 0, 0
}

// code returns the STRING code of position i.
func (x *docIndex) code(i int) uint32 { return uint32(x.codes.At(x.first + i)) }

// indexDoc indexes the document at rows first to end-1 of codes, the
// STRING code vector whose strings capital flags, on its own: it finds
// the document's cliques. NewCorpusIndex calls it for each DOC_ID run.
func indexDoc(codes relstore.Slots, capital []bool, first, end int) docIndex {
	byCode := make(map[int64][]int) // by capitalized code: its positions
	for i := range end - first {
		if c := codes.At(first + i); capital[c] {
			byCode[c] = append(byCode[c], i)
		}
	}
	cliques, start, member := make([]int, end-first), []int32{0}, []int(nil)
	for i := range cliques {
		if same := byCode[codes.At(first+i)]; len(same) > 1 && cliques[i] == 0 {
			for _, p := range same {
				cliques[p] = len(start)
			}
			member = append(member, same...)
			start = append(start, int32(len(member)))
		}
	}
	return docIndex{first: first, end: end, codes: codes, capital: capital,
		cliques: narrowOf(cliques), start: slices.Clone(start), member: narrowOf(member)}
}

// narrow is a read-only vector of ints in [0, 2³²) at the narrowest of
// 1, 2 or 4 B per entry that holds them all: the one slice in use says
// which. relstore.Slots does the same for a column, but its header is 104
// B, where a document holds two of these.
type narrow struct {
	w8  []uint8
	w16 []uint16
	w32 []uint32
}

// narrowOf packs vals, each in [0, 2³²).
func narrowOf(vals []int) narrow {
	top := 0
	for _, x := range vals {
		top = max(top, x)
	}
	switch {
	case top >= 1<<16:
		return narrow{w32: convert[uint32](vals)}
	case top >= 1<<8:
		return narrow{w16: convert[uint16](vals)}
	}
	return narrow{w8: convert[uint8](vals)}
}

// convert returns vals as Ts, each of which holds its value.
func convert[T uint8 | uint16 | uint32](vals []int) []T {
	out := make([]T, len(vals))
	for i, x := range vals {
		out[i] = T(x)
	}
	return out
}

// at returns entry i.
func (v *narrow) at(i int) int {
	switch {
	case v.w8 != nil:
		return int(v.w8[i])
	case v.w16 != nil:
		return int(v.w16[i])
	}
	return int(v.w32[i])
}

// CorpusIndex is the docIndex of every document of a loaded TOKEN
// relation. A token's string is its STRING code in the vector the index
// borrows (relstore.Relation.StringCodes), at the width the vector has,
// which no write changes, with one capitalization flag per code. Per
// token it allocates only a clique number, 1 B while its document has
// fewer than 256 cliques; the member lists hold only the tokens that
// have a partner. At 50 000 tokens it keeps 134 kB.
type CorpusIndex struct {
	docs    []docIndex
	tokens  int
	strings int
}

// NumDocs returns the number of documents indexed.
func (ix *CorpusIndex) NumDocs() int { return len(ix.docs) }

// NumTokens returns the number of tokens indexed.
func (ix *CorpusIndex) NumTokens() int { return ix.tokens }

// NumStrings returns the number of STRING codes, which run from 0.
func (ix *CorpusIndex) NumStrings() int { return ix.strings }

// NewCorpusIndex indexes the TOKEN relation of db, a world LoadCorpus
// filled and nothing has deleted from, once for every NewTagger over the
// corpus. Its documents are the DOC_ID runs in row order.
func NewCorpusIndex(db *relstore.DB) (*CorpusIndex, error) {
	rel, err := db.Relation(TokenRelation)
	if err != nil {
		return nil, err
	}
	codes, strs, err := rel.StringCodes(stringCol)
	if err != nil {
		return nil, err
	}
	n := codes.Len()
	if rel.Len() != n {
		return nil, fmt.Errorf("ie: %s has deleted rows; index a fresh load", TokenRelation)
	}
	capital := make([]bool, len(strs))
	for c, s := range strs {
		capital[c] = IsCapitalized(s)
	}
	var ends []int // the row after each DOC_ID run
	var doc relstore.Value
	for row := range n {
		v, _ := rel.GetCol(relstore.RowID(row), docCol)
		if row > 0 && !v.Equal(doc) {
			ends = append(ends, row)
		}
		doc = v
	}
	if n > 0 {
		ends = append(ends, n)
	}
	ix := &CorpusIndex{docs: make([]docIndex, len(ends)), tokens: n, strings: len(strs)}
	first := 0
	for d, end := range ends {
		ix.docs[d] = indexDoc(codes, capital, first, end)
		first = end
	}
	return ix, nil
}

// LabeledDoc is one document of a tagger: its window of the shared index
// and the tagger whose world holds its labels.
type LabeledDoc struct {
	ix *docIndex
	t  *Tagger
}

// Len returns the number of tokens in the document.
func (ld *LabeledDoc) Len() int { return ld.ix.end - ld.ix.first }

// Label returns the current label of position i in the tagger's world.
func (ld *LabeledDoc) Label(i int) Label {
	return ld.t.labels[ld.t.rel.CodeAt(relstore.RowID(ld.ix.first+i), LabelCol)]
}

// SkipDegree returns the number of skip partners of position i: the
// other members of its clique.
func (ld *LabeledDoc) SkipDegree(i int) int {
	if lo, hi := ld.ix.clique(i); hi > lo {
		return hi - lo - 1
	}
	return 0
}

// localFeatures accumulates sign×φ for every factor touching position i
// under label l into d. It covers emission, capitalization, bias, the two
// incident transitions and all incident skip edges — the only factors
// whose value changes when position i changes (Appendix 9.2).
func (m *Model) localFeatures(d *learn.Delta, ld *LabeledDoc, i int, l Label, sign float64) {
	c := ld.ix.code(i)
	d.Add(EmissionKey(int(c), l), sign)
	d.Add(CapsKey(ld.ix.capital[c], l), sign)
	d.Add(BiasKey(l), sign)
	if i > 0 {
		d.Add(TransKey(ld.Label(i-1), l), sign)
	}
	if i+1 < ld.Len() {
		d.Add(TransKey(l, ld.Label(i+1)), sign)
	}
	if m.UseSkip {
		for j, end := ld.ix.clique(i); j < end; j++ {
			if q := ld.ix.member.at(j); q != i {
				d.Add(SkipKey(ld.Label(q) == l), sign)
			}
		}
	}
}

// nodeScore sums the factors private to a position of x whose STRING
// code is c under label l: emission, capitalization and bias. The caller
// reads c (docIndex.code) once for every label it scores.
func (t theta) nodeScore(x *docIndex, c uint32, l Label) float64 {
	return t.emit(c, l) + t.caps(x.capital[c], l) + t.bias(l)
}

// ScoreDelta returns log π(w') − log π(w) for relabeling position i of ld
// to newLabel. Only the factors adjacent to the changed variable are
// computed; everything else cancels in the MH ratio. The cost is constant
// in the database size (plus the skip degree of the token). Each
// neighbour's label is read once and scored under both labels, each sum
// in the order localFeatures lists the factors.
func (m *Model) ScoreDelta(ld *LabeledDoc, i int, newLabel Label) float64 {
	old := ld.Label(i)
	if newLabel == old {
		return 0
	}
	t := m.theta()
	c := ld.ix.code(i)
	sNew, sOld := t.nodeScore(ld.ix, c, newLabel), t.nodeScore(ld.ix, c, old)
	if i > 0 {
		prev := ld.Label(i - 1)
		sNew, sOld = sNew+t.trans(prev, newLabel), sOld+t.trans(prev, old)
	}
	if i+1 < ld.Len() {
		next := ld.Label(i + 1)
		sNew, sOld = sNew+t.trans(newLabel, next), sOld+t.trans(old, next)
	}
	if m.UseSkip {
		for j, end := ld.ix.clique(i); j < end; j++ {
			if q := ld.ix.member.at(j); q != i {
				lq := ld.Label(q)
				sNew, sOld = sNew+t.skip(lq == newLabel), sOld+t.skip(lq == old)
			}
		}
	}
	return sNew - sOld
}

// FeatureDelta accumulates φ(w') − φ(w) for the same relabeling into d,
// used by SampleRank training.
func (m *Model) FeatureDelta(d *learn.Delta, ld *LabeledDoc, i int, newLabel Label) {
	if old := ld.Label(i); newLabel != old {
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
	var prev Label
	for i := range ld.Len() {
		l := ld.Label(i)
		s += t.nodeScore(ld.ix, ld.ix.code(i), l)
		if i > 0 {
			s += t.trans(prev, l)
		}
		prev = l
	}
	if m.UseSkip {
		// Each unordered skip pair counts once.
		for i := range ld.Len() {
			for j, end := ld.ix.clique(i); j < end; j++ {
				if q := ld.ix.member.at(j); i < q {
					s += t.skip(ld.Label(q) == ld.Label(i))
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
	if i+1 < ld.Len() {
		n++
	}
	if m.UseSkip {
		n += ld.SkipDegree(i)
	}
	return 2 * n // evaluated under both the old and the new label
}
