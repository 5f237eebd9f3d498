package ra

import (
	"fmt"
	"slices"
	"strings"

	"factordb/internal/relstore"
)

// KeyFilter is what an equi-join learns from an input that is a leaf
// chain (projections and selections over one scan) when the chain's
// selection has conjuncts that read no hidden column and its join key is
// evidence. Every row the input holds, in every possible world, comes
// from a scanned row that passes Where, so its key is among the keys of
// those rows. That set changes only with a write to the relation's
// evidence (relstore.Relation.EvidenceGen), so the join's other input may
// drop every row whose key is outside it. Like Bound.Certain it is read
// off the tree and the schema's hidden marks, refers to no world, and is
// not part of the fingerprint.
type KeyFilter struct {
	Table string // the scanned relation
	Where BExpr  // the chain's evidence conjuncts, over the scan's row
	Key   []int  // the join key's columns in the scan's row
	desc  string
}

// String describes the filter for EXPLAIN, as "DOC_ID of TOKEN T1 rows
// where (T1.STRING = "Boston")".
func (f *KeyFilter) String() string { return f.desc }

// setKeyFilters annotates every equi-join in b with the filters its
// inputs put on each other.
func setKeyFilters(db *relstore.DB, b *Bound) {
	for _, c := range b.Children {
		setKeyFilters(db, c)
	}
	if b.Kind == KJoin && len(b.LeftKey) > 0 {
		b.KeyFilters[1] = keyFilter(db, b.Children[0], b.LeftKey)
		b.KeyFilters[0] = keyFilter(db, b.Children[1], b.RightKey)
	}
}

// keyFilter returns the filter that input b, joined on its columns key,
// puts on the join's other input, or nil when there is none.
func keyFilter(db *relstore.DB, b *Bound, key []int) *KeyFilter {
	key = slices.Clone(key)
	var terms []BExpr
	var text []string
	for ; b.Kind == KSelect || b.Kind == KProject; b = b.Children[0] {
		if b.Kind == KProject {
			// A selection above a projection reads the projected row,
			// not the scan's. Leaving it out only widens the set.
			terms, text = nil, nil
			for i, k := range key {
				key[i] = b.ProjIdx[k]
			}
			continue
		}
		// Binding keeps a conjunction's terms in order, one bound term
		// per written one.
		terms = append(terms, boundConjuncts(b.Pred)...)
		for _, c := range Conjuncts(b.Source.(*Select).Pred) {
			text = append(text, c.String())
		}
	}
	if b.Kind != KScan {
		return nil
	}
	rel, _ := db.Relation(b.Table) // bindScan found it
	sch := rel.Schema()
	names := make([]string, len(key))
	for i, k := range key {
		if sch.Hidden(k) {
			return nil
		}
		names[i] = sch.Cols[k].Name
	}
	var where []BExpr
	var said []string
	for i, t := range terms {
		if HiddenInPredicate(sch, t) == "" {
			where, said = append(where, t), append(said, text[i])
		}
	}
	if len(where) == 0 {
		return nil
	}
	f := &KeyFilter{Table: b.Table, Key: key, Where: boundAnd{where}}
	if len(where) == 1 {
		f.Where = where[0]
	}
	f.desc = fmt.Sprintf("%s of %s %s rows where %s", strings.Join(names, ", "), b.Table, b.Alias, strings.Join(said, " AND "))
	return f
}

// boundConjuncts returns the top-level terms of a bound conjunction.
func boundConjuncts(pred BExpr) []BExpr {
	if and, ok := pred.(boundAnd); ok {
		return and.terms
	}
	return []BExpr{pred}
}
