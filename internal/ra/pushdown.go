package ra

import "fmt"

// Pushdown rewrites a bound tree for streaming execution by moving
// selection predicates as close to the data as possible: conjuncts of
// Select predicates (and of join residual filters) sink below joins onto
// the side whose columns they reference, and predicates reaching a scan
// fuse into the scan itself (executed via relstore.ScanWhere, so rejected
// tuples never leave the storage layer).
//
// The transform is streaming-only and behavior-preserving: the input tree
// is never mutated (rewritten paths are cloned, untouched subtrees are
// shared), so the same Bound tree still feeds the ivm compiler, whose
// leaves split the selection directly above each scan themselves
// (ScanFilter), and keeps the fingerprints views are registered under.
// The input is the tree Bind returned, projections under join inputs
// included (prune.go): a conjunct sinks through such a projection
// whenever its columns are among the read ones, which they are if it
// bound above. Conjuncts are re-bound against the schema of their new
// position; any conjunct that cannot be re-bound stays as a Select at its
// original position, so the transform can relocate predicates but never
// drop one.
func Pushdown(b *Bound) *Bound {
	return pushPreds(b, nil)
}

// pushPreds rewrites b with the given unbound conjuncts applied on top of
// it, sinking them as deep as legality allows. The returned tree is
// semantically Select[And(preds)](b).
func pushPreds(b *Bound, preds []Expr) *Bound {
	switch b.Kind {
	case KSelect:
		src, ok := b.Source.(*Select)
		if !ok {
			// A select whose unbound source is unavailable cannot have its
			// predicate re-bound elsewhere; keep it in place as a barrier.
			nb := cloneNode(b)
			nb.Children = []*Bound{pushPreds(b.Children[0], nil)}
			return wrapSelect(nb, preds)
		}
		// Dissolve the select: its conjuncts join the in-flight set and
		// continue sinking through the child.
		return pushPreds(b.Children[0], append(splitConjuncts(src.Pred), preds...))

	case KScan:
		if len(preds) == 0 {
			return b
		}
		pred, err := BindPredicate(b.Schema, And(preds...))
		if err != nil {
			return wrapSelect(b, preds)
		}
		nb := cloneNode(b)
		nb.Pred = pred
		return nb

	case KProject:
		// A conjunct sinks below the projection iff its columns survive in
		// the child schema (re-bind decides).
		var down, up []Expr
		for _, e := range preds {
			if bindable(b.Children[0].Schema, e) {
				down = append(down, e)
			} else {
				up = append(up, e)
			}
		}
		nb := cloneNode(b)
		nb.Children = []*Bound{pushPreds(b.Children[0], down)}
		return wrapSelect(nb, up)

	case KJoin:
		all := preds
		replacedFilter := false
		if src, ok := b.Source.(*Join); ok && src.Filter != nil {
			// The residual filter's conjuncts are candidates too: a filter
			// touching only one side is really a selection in disguise.
			all = append(splitConjuncts(src.Filter), preds...)
			replacedFilter = true
		}
		var lp, rp, residual []Expr
		for _, e := range all {
			switch {
			case bindable(b.Children[0].Schema, e):
				lp = append(lp, e)
			case bindable(b.Children[1].Schema, e):
				rp = append(rp, e)
			default:
				residual = append(residual, e)
			}
		}
		nb := cloneNode(b)
		nb.Children = []*Bound{pushPreds(b.Children[0], lp), pushPreds(b.Children[1], rp)}
		if replacedFilter {
			nb.Filter = nil
		}
		if len(residual) > 0 {
			f, err := BindPredicate(b.Schema, And(residual...))
			if err != nil {
				return wrapSelect(nb, residual)
			}
			if nb.Filter != nil {
				f = boundAnd{terms: []BExpr{nb.Filter, f}}
			}
			nb.Filter = f
		}
		return nb

	case KDistinct:
		// Selection commutes with duplicate elimination.
		nb := cloneNode(b)
		nb.Children = []*Bound{pushPreds(b.Children[0], preds)}
		return nb
	}

	// Pushdown barriers — aggregation changes the row shape, set operations
	// have positionally (not nominally) matched sides, and order-limit's
	// output depends on rows a filter would remove. Predicates stop here;
	// the subtrees below still get their own rewrite.
	nb := b
	if len(b.Children) > 0 {
		nb = cloneNode(b)
		nb.Children = make([]*Bound, len(b.Children))
		for i, c := range b.Children {
			nb.Children[i] = pushPreds(c, nil)
		}
	}
	return wrapSelect(nb, preds)
}

// splitConjuncts flattens an unbound predicate into its top-level AND
// conjuncts, recursing through nested conjunctions.
func splitConjuncts(e Expr) []Expr {
	if a, ok := e.(andExpr); ok {
		var out []Expr
		for _, t := range a.terms {
			out = append(out, splitConjuncts(t)...)
		}
		return out
	}
	return []Expr{e}
}

// bindable reports whether e can be bound as a predicate against sch.
func bindable(sch *RowSchema, e Expr) bool {
	_, err := BindPredicate(sch, e)
	return err == nil
}

// wrapSelect places the remaining conjuncts as a synthesized selection
// above b. Every conjunct reaching here previously bound at a node with
// this same output schema, so re-binding cannot fail; if it ever does,
// the transform has violated its own invariant and silently dropping the
// predicate would corrupt results — fail loudly instead.
func wrapSelect(b *Bound, preds []Expr) *Bound {
	if len(preds) == 0 {
		return b
	}
	pred, err := BindPredicate(b.Schema, And(preds...))
	if err != nil {
		panic(fmt.Sprintf("ra: pushdown cannot re-bind predicate at its origin schema: %v", err))
	}
	return &Bound{Kind: KSelect, Schema: b.Schema, Children: []*Bound{b}, Pred: pred}
}

// cloneNode shallow-copies a bound node so the rewrite never mutates the
// caller's tree.
func cloneNode(b *Bound) *Bound {
	nb := *b
	return &nb
}
