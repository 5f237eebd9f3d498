package ra

import "fmt"

// Column pruning is the second half of Bind: a top-down pass over the
// freshly bound tree works out, for every node, which of its output
// columns anything above it reads, and wherever a join input carries
// columns nobody reads — not the join keys, not the residual filter, not
// an ancestor — a projection onto the read columns is inserted under
// that input. Bag projection adds up the multiplicities of the rows it
// collapses and a join multiplies multiplicities, so the join's output
// restricted to the read columns is the same multiset either way; what
// changes is what executes: the streaming join concatenates narrow rows,
// and a maintained view (package ivm) keeps a pruned join side as
// (read columns, multiplicity) rows instead of full-width base tuples —
// Query 3's 50k TOKEN rows become one DOC_ID count per document.
//
// The root, Distinct, Union/Diff and OrderLimit read every column of
// their children (their output rows, tie-breaks or positional matching
// depend on all of them); Select adds its predicate's columns to what
// its parent reads; Project and GroupAgg read exactly the columns they
// name. Nothing is inserted where nothing would be dropped, so a plan
// without a join binds to the tree it was written as.
//
// The pass rewrites the logical plan (the bound nodes' Source) and binds
// the result again rather than patching column positions in place:
// every position above an inserted projection shifts, and the binder
// already knows how to resolve all of them.

// prunePlan returns the logical plan of b's subtree with projections
// inserted under join inputs, given the output columns of b that its
// ancestors read. It returns b.Source itself when nothing was inserted
// anywhere below.
func prunePlan(b *Bound, need []bool) Plan {
	if len(b.Children) == 0 {
		return b.Source
	}
	needs := childNeeds(b, need)
	kids := make([]Plan, len(b.Children))
	changed := false
	for i, c := range b.Children {
		kids[i] = prunePlan(c, needs[i])
		if b.Kind == KJoin {
			if cols := droppable(c.Schema, needs[i]); cols != nil {
				kids[i] = &Project{Child: kids[i], Cols: cols}
			}
		}
		changed = changed || kids[i] != c.Source
	}
	if !changed {
		return b.Source
	}
	return withChildren(b.Source, kids)
}

func allCols(n int) []bool {
	all := make([]bool, n)
	for i := range all {
		all[i] = true
	}
	return all
}

// childNeeds maps the columns read of b's output to the columns b reads
// of each child's output.
func childNeeds(b *Bound, need []bool) [][]bool {
	arity := func(i int) int { return b.Children[i].Schema.Arity() }
	switch b.Kind {
	case KSelect:
		n := append([]bool(nil), need...)
		markCols(b.Pred, n)
		return [][]bool{n}
	case KProject:
		n := make([]bool, arity(0))
		for _, j := range b.ProjIdx {
			n[j] = true
		}
		return [][]bool{n}
	case KJoin:
		la := arity(0)
		n := append([]bool(nil), need...)
		if b.Filter != nil {
			markCols(b.Filter, n)
		}
		for i := range b.LeftKey {
			n[b.LeftKey[i]] = true
			n[la+b.RightKey[i]] = true
		}
		return [][]bool{n[:la], n[la:]}
	case KGroupAgg:
		n := make([]bool, arity(0))
		for _, j := range b.GroupIdx {
			n[j] = true
		}
		for _, a := range b.Aggs {
			if a.ArgIdx >= 0 {
				n[a.ArgIdx] = true
			}
			if a.Pred != nil {
				markCols(a.Pred, n)
			}
		}
		return [][]bool{n}
	}
	out := make([][]bool, len(b.Children))
	for i := range out {
		out[i] = allCols(arity(i))
	}
	return out
}

// markCols sets need[i] for every column position e reads.
func markCols(e BExpr, need []bool) {
	switch x := e.(type) {
	case boundCol:
		need[x.idx] = true
	case boundConst:
	case boundCmp:
		markCols(x.l, need)
		markCols(x.r, need)
	case boundAnd:
		for _, t := range x.terms {
			markCols(t, need)
		}
	case boundOr:
		for _, t := range x.terms {
			markCols(t, need)
		}
	case boundNot:
		markCols(x.inner, need)
	default:
		// As in writeBExprFP: a BExpr this pass cannot see into would be
		// pruned from under its reader, so fail loudly.
		panic(fmt.Sprintf("ra: BExpr %T has no column walk", e))
	}
}

// droppable returns the references of the read columns of a join input,
// in schema order, when projecting onto them drops at least one column,
// and nil otherwise. It also returns nil when no column is read (a
// projection needs one) or when a read column's reference does not
// resolve back to its own position, as after a projection that repeats
// a column: the rewrite names columns, so it needs names that work.
func droppable(sch *RowSchema, need []bool) []ColRef {
	var cols []ColRef
	for i, c := range sch.Cols {
		if !need[i] {
			continue
		}
		if j, err := sch.Resolve(c.Ref); err != nil || j != i {
			return nil
		}
		cols = append(cols, c.Ref)
	}
	if len(cols) == 0 || len(cols) == len(sch.Cols) {
		return nil
	}
	return cols
}

// withChildren copies a logical plan node with its children replaced.
func withChildren(p Plan, kids []Plan) Plan {
	switch n := p.(type) {
	case *Select:
		c := *n
		c.Child = kids[0]
		return &c
	case *Project:
		c := *n
		c.Child = kids[0]
		return &c
	case *Join:
		c := *n
		c.Left, c.Right = kids[0], kids[1]
		return &c
	case *GroupAgg:
		c := *n
		c.Child = kids[0]
		return &c
	case *Union:
		return &Union{Left: kids[0], Right: kids[1]}
	case *Diff:
		return &Diff{Left: kids[0], Right: kids[1]}
	case *Distinct:
		return &Distinct{Child: kids[0]}
	case *OrderLimit:
		c := *n
		c.Child = kids[0]
		return &c
	}
	panic(fmt.Sprintf("ra: plan node %T has no child rewrite", p))
}
