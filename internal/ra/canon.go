package ra

import (
	"slices"
	"strings"

	"factordb/internal/relstore"
)

// canonPlan returns the canonical form of the plan b was bound from, so
// that textual variants of one query bind to one tree and share one
// bound fingerprint (Bound.Fingerprint), which keys the serving engine's
// result cache and its per-chain view registries. Prepare runs it once,
// on the plan as written and bound: b's schemas resolve every column to
// a position, and every sort below is keyed on the structural encoding
// the fingerprint writes (appendBExprFP), where a column is that
// position, so neither alias spelling, nor qualification, nor written
// order can move a term. The rewrite preserves semantics exactly:
//
//   - AND/OR conjunctions are flattened, deduplicated and sorted;
//   - comparisons are oriented (constants move to the right-hand side,
//     mirroring the operator) and symmetric operators (=, !=) order
//     their operands;
//   - constant subexpressions fold (5 < 7 becomes TRUE), TRUE selection
//     predicates drop the Select node, and TRUE join filters drop to nil;
//   - join equi-condition lists are sorted by their key positions.
//
// Aliases, output column names, aggregate output names, and the relative
// order of projection/group/aggregate/sort columns are untouched: they
// define the result schema. A node whose canonical form binds to the
// same structure is returned as it is, so canonPlan is idempotent and
// keeps a plan that was canonical already.
func canonPlan(b *Bound) Plan {
	kids := make([]Plan, len(b.Children))
	same := true
	for i, c := range b.Children {
		kids[i] = canonPlan(c)
		same = same && kids[i] == c.Source
	}
	switch n := b.Source.(type) {
	case *Select:
		sch := b.Children[0].Schema
		pred := canonExpr(n.Pred, sch)
		switch {
		case isConstBool(pred, true):
			return kids[0]
		case same && bindsAs(pred, sch, b.Pred):
			return n
		}
		return &Select{Child: kids[0], Pred: pred}
	case *Join:
		j := &Join{Left: kids[0], Right: kids[1]}
		order := make([]int, len(n.On))
		for i := range order {
			order[i] = i
		}
		slices.SortStableFunc(order, func(x, y int) int {
			if d := b.LeftKey[x] - b.LeftKey[y]; d != 0 {
				return d
			}
			return b.RightKey[x] - b.RightKey[y]
		})
		for i, o := range order {
			j.On = append(j.On, n.On[o])
			same = same && i == o
		}
		if n.Filter != nil {
			if f := canonExpr(n.Filter, b.Schema); !isConstBool(f, true) {
				j.Filter = f
			}
		}
		if same && (j.Filter == nil) == (b.Filter == nil) &&
			(j.Filter == nil || bindsAs(j.Filter, b.Schema, b.Filter)) {
			return n
		}
		return j
	case *GroupAgg:
		g := &GroupAgg{Child: kids[0], GroupBy: n.GroupBy, Aggs: slices.Clone(n.Aggs)}
		sch := b.Children[0].Schema
		for i, a := range g.Aggs {
			if a.Pred != nil {
				g.Aggs[i].Pred = canonExpr(a.Pred, sch)
				same = same && bindsAs(g.Aggs[i].Pred, sch, b.Aggs[i].Pred)
			}
		}
		if same {
			return n
		}
		return g
	}
	if same {
		return b.Source
	}
	return withChildren(b.Source, kids)
}

// fpKey is the structural encoding of e bound against sch: the key the
// canonical sorts order and deduplicate terms by. Canonicalization runs
// only on expressions that bound, so every subterm binds too.
func fpKey(e Expr, sch *RowSchema) string {
	b, _, err := e.bind(sch)
	if err != nil {
		panic("ra: canonical term does not bind: " + err.Error())
	}
	return string(appendBExprFP(nil, b))
}

// bindsAs reports whether e binds against sch to the structure of b.
func bindsAs(e Expr, sch *RowSchema, b BExpr) bool {
	return fpKey(e, sch) == string(appendBExprFP(nil, b))
}

// isConstBool reports whether e is a boolean literal equal to want.
func isConstBool(e Expr, want bool) bool {
	c, ok := e.(constExpr)
	return ok && c.v.Kind() == relstore.TBool && c.v.AsBool() == want
}

// mirror returns the comparison that swaps the operand sides of op.
func mirror(op CmpOp) CmpOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	}
	return op // = and != are symmetric
}

// canonExpr canonicalizes a scalar expression that binds against sch:
// flatten, fold, orient, sort, deduplicate.
func canonExpr(e Expr, sch *RowSchema) Expr {
	switch x := e.(type) {
	case cmpExpr:
		return canonCmp(x, sch)
	case andExpr:
		terms, isFalse := canonBoolTerms(x.terms, sch, true)
		switch {
		case isFalse:
			return constExpr{relstore.Bool(false)}
		case len(terms) == 0:
			return constExpr{relstore.Bool(true)}
		case len(terms) == 1:
			return terms[0]
		}
		return andExpr{terms}
	case orExpr:
		terms, isTrue := canonBoolTerms(x.terms, sch, false)
		switch {
		case isTrue:
			return constExpr{relstore.Bool(true)}
		case len(terms) == 0:
			return constExpr{relstore.Bool(false)}
		case len(terms) == 1:
			return terms[0]
		}
		return orExpr{terms}
	}
	return e // a column or a constant
}

func canonCmp(x cmpExpr, sch *RowSchema) Expr {
	op := x.op
	l := canonExpr(x.l, sch)
	r := canonExpr(x.r, sch)
	lc, lConst := l.(constExpr)
	rc, rConst := r.(constExpr)
	switch {
	case lConst && rConst:
		// The comparison bound, so its operands compare.
		return constExpr{relstore.Bool(evalCmp(op, lc.v, rc.v))}
	case lConst:
		// Orient the literal to the right: 5 < X becomes X > 5.
		op, l, r = mirror(op), r, l
	case !rConst && (op == OpEq || op == OpNe):
		// Symmetric operators over two non-literal operands order them
		// (a literal operand is already pinned to the right).
		if fpKey(r, sch) < fpKey(l, sch) {
			l, r = r, l
		}
	}
	return cmpExpr{op, l, r}
}

func evalCmp(op CmpOp, lv, rv relstore.Value) bool {
	switch op {
	case OpEq:
		return lv.Equal(rv)
	case OpNe:
		return !lv.Equal(rv)
	case OpLt:
		return lv.Less(rv)
	case OpLe:
		return !rv.Less(lv)
	case OpGt:
		return rv.Less(lv)
	case OpGe:
		return !lv.Less(rv)
	}
	return false
}

// canonBoolTerms canonicalizes and flattens the terms of a conjunction
// (and=true) or disjunction (and=false), drops the connective's identity
// literal, deduplicates, and sorts. It reports whether the connective's
// absorbing literal appeared, collapsing the whole expression.
func canonBoolTerms(terms []Expr, sch *RowSchema, and bool) (out []Expr, absorbed bool) {
	type keyed struct {
		key string
		e   Expr
	}
	var kept []keyed
	var flat func(ts []Expr) bool
	flat = func(ts []Expr) bool {
		for _, t := range ts {
			c := canonExpr(t, sch)
			if and {
				if inner, ok := c.(andExpr); ok {
					if flat(inner.terms) {
						return true
					}
					continue
				}
			} else {
				if inner, ok := c.(orExpr); ok {
					if flat(inner.terms) {
						return true
					}
					continue
				}
			}
			if isConstBool(c, and) {
				continue // identity: TRUE in AND, FALSE in OR
			}
			if isConstBool(c, !and) {
				return true // absorbing: FALSE in AND, TRUE in OR
			}
			kept = append(kept, keyed{fpKey(c, sch), c})
		}
		return false
	}
	if flat(terms) {
		return nil, true
	}
	slices.SortFunc(kept, func(x, y keyed) int { return strings.Compare(x.key, y.key) })
	for i, k := range kept {
		if i == 0 || k.key != kept[i-1].key {
			out = append(out, k.e)
		}
	}
	return out, false
}
