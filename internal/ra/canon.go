package ra

import (
	"fmt"
	"sort"

	"factordb/internal/relstore"
)

// Canonicalize rewrites a logical plan into the canonical form the SQL
// planner emits, so that textual variants of one query bind to one tree
// and share one bound fingerprint (Bound.Fingerprint), which keys the
// serving engine's result cache and its per-chain view registries. The
// pass is purely structural — it never consults a catalog — and
// preserves semantics exactly:
//
//   - table aliases are renamed to position-derived names (_c0, _c1, …)
//     in pre-order, so alias spelling cannot reorder the sorts below,
//     which compare renderings (the bound fingerprint drops aliases);
//   - AND/OR conjunctions are flattened, deduplicated, and sorted by
//     their canonical rendering, so predicate order cannot either;
//   - comparisons are oriented (constants move to the right-hand side,
//     mirroring the operator) and symmetric operators (=, !=) order
//     their operands canonically;
//   - constant subexpressions fold (5 < 7 becomes TRUE), TRUE selection
//     predicates drop the Select node, and TRUE join filters drop to nil;
//   - join equi-condition lists are sorted.
//
// Output column names, aggregate output names, and the relative order of
// projection/group/aggregate/sort columns are untouched: they define the
// result schema. Canonicalize is idempotent.
func Canonicalize(p Plan) Plan {
	ren := canonAliasMap(p)
	return canonNode(p, ren)
}

// canonAliasMap assigns each distinct scan alias a position-derived name
// in pre-order, left to right — the traversal is structural, so any two
// plans of the same shape rename corresponding aliases identically.
//
// A plan with a single alias gets the stronger rule: a qualifier naming
// that alias is provably redundant (it can only mean that one scan, and
// aggregate outputs are unqualified by construction), so the canonical
// form drops it — the map sends the alias to "", and the scan itself
// takes a reserved name (see canonNode). SELECT T.X FROM R T and
// SELECT X FROM R then share one canonical plan, while a qualifier that
// never named the alias is left intact and still fails at bind. The
// empty alias is never mapped: an unqualified reference in a multi-scan
// plan means "resolve by name", and pinning it to one scan would change
// which column it names.
func canonAliasMap(p Plan) map[string]string {
	ren := make(map[string]string)
	var walk func(Plan)
	walk = func(p Plan) {
		switch n := p.(type) {
		case *Scan:
			if _, ok := ren[n.Alias]; n.Alias != "" && !ok {
				ren[n.Alias] = fmt.Sprintf("_c%d", len(ren))
			}
		case *Select:
			walk(n.Child)
		case *Project:
			walk(n.Child)
		case *Join:
			walk(n.Left)
			walk(n.Right)
		case *GroupAgg:
			walk(n.Child)
		case *Union:
			walk(n.Left)
			walk(n.Right)
		case *Diff:
			walk(n.Left)
			walk(n.Right)
		case *Distinct:
			walk(n.Child)
		case *OrderLimit:
			walk(n.Child)
		}
	}
	walk(p)
	if len(ren) == 1 {
		for alias := range ren {
			ren[alias] = ""
		}
	}
	return ren
}

func renRef(ref ColRef, ren map[string]string) ColRef {
	if to, ok := ren[ref.Rel]; ok {
		ref.Rel = to
	}
	return ref
}

func canonNode(p Plan, ren map[string]string) Plan {
	switch n := p.(type) {
	case *Scan:
		alias, renamed := ren[n.Alias]
		switch {
		case !renamed:
			alias = n.Alias // hand-built alias-less scan: keep as-is
		case alias == "":
			// Single-alias plan: references were unqualified, so the scan
			// takes a reserved name no SQL qualifier can spell (unquoted
			// identifiers fold to upper case) — a stale qualifier that
			// never matched the alias keeps failing to bind.
			alias = "_c0"
		}
		return &Scan{Table: n.Table, Alias: alias}
	case *Select:
		child := canonNode(n.Child, ren)
		pred := canonExpr(n.Pred, ren)
		if isConstBool(pred, true) {
			return child
		}
		return &Select{Child: child, Pred: pred}
	case *Project:
		cols := make([]ColRef, len(n.Cols))
		for i, c := range n.Cols {
			cols[i] = renRef(c, ren)
		}
		return &Project{Child: canonNode(n.Child, ren), Cols: cols}
	case *Join:
		j := &Join{Left: canonNode(n.Left, ren), Right: canonNode(n.Right, ren)}
		if len(n.On) > 0 {
			j.On = make([]EquiCond, len(n.On))
			for i, c := range n.On {
				j.On[i] = EquiCond{Left: renRef(c.Left, ren), Right: renRef(c.Right, ren)}
			}
			sort.Slice(j.On, func(a, b int) bool {
				if j.On[a].Left != j.On[b].Left {
					return j.On[a].Left.String() < j.On[b].Left.String()
				}
				return j.On[a].Right.String() < j.On[b].Right.String()
			})
		}
		if n.Filter != nil {
			if f := canonExpr(n.Filter, ren); !isConstBool(f, true) {
				j.Filter = f
			}
		}
		return j
	case *GroupAgg:
		g := &GroupAgg{Child: canonNode(n.Child, ren)}
		for _, c := range n.GroupBy {
			g.GroupBy = append(g.GroupBy, renRef(c, ren))
		}
		for _, a := range n.Aggs {
			ca := Agg{Fn: a.Fn, Arg: renRef(a.Arg, ren), As: a.As}
			if a.Pred != nil {
				ca.Pred = canonExpr(a.Pred, ren)
			}
			g.Aggs = append(g.Aggs, ca)
		}
		return g
	case *Union:
		return &Union{Left: canonNode(n.Left, ren), Right: canonNode(n.Right, ren)}
	case *Diff:
		return &Diff{Left: canonNode(n.Left, ren), Right: canonNode(n.Right, ren)}
	case *Distinct:
		return &Distinct{Child: canonNode(n.Child, ren)}
	case *OrderLimit:
		keys := make([]SortKey, len(n.Keys))
		for i, k := range n.Keys {
			keys[i] = SortKey{Col: renRef(k.Col, ren), Desc: k.Desc}
		}
		return &OrderLimit{Child: canonNode(n.Child, ren), Keys: keys, Limit: n.Limit}
	}
	return p
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

// canonExpr canonicalizes a scalar expression under the alias renaming:
// flatten, fold, orient, sort, deduplicate. Unknown Expr implementations
// pass through untouched (they canonicalize to themselves).
func canonExpr(e Expr, ren map[string]string) Expr {
	switch x := e.(type) {
	case colExpr:
		return colExpr{renRef(x.ref, ren)}
	case constExpr:
		return x
	case cmpExpr:
		return canonCmp(x, ren)
	case andExpr:
		terms, isFalse := canonBoolTerms(x.terms, ren, true)
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
		terms, isTrue := canonBoolTerms(x.terms, ren, false)
		switch {
		case isTrue:
			return constExpr{relstore.Bool(true)}
		case len(terms) == 0:
			return constExpr{relstore.Bool(false)}
		case len(terms) == 1:
			return terms[0]
		}
		return orExpr{terms}
	case notExpr:
		inner := canonExpr(x.inner, ren)
		if c, ok := inner.(constExpr); ok && c.v.Kind() == relstore.TBool {
			return constExpr{relstore.Bool(!c.v.AsBool())}
		}
		if nn, ok := inner.(notExpr); ok {
			return nn.inner
		}
		return notExpr{inner}
	}
	return e
}

func canonCmp(x cmpExpr, ren map[string]string) Expr {
	op := x.op
	l := canonExpr(x.l, ren)
	r := canonExpr(x.r, ren)
	lc, lConst := l.(constExpr)
	rc, rConst := r.(constExpr)
	switch {
	case lConst && rConst:
		// Fold only comparisons binding would accept; the rest keep their
		// shape so the type error still surfaces at bind time.
		if comparable2(lc.v.Kind(), rc.v.Kind()) &&
			!(lc.v.Kind() == relstore.TBool && op != OpEq && op != OpNe) {
			return constExpr{relstore.Bool(evalCmp(op, lc.v, rc.v))}
		}
	case lConst:
		// Orient the literal to the right: 5 < X becomes X > 5.
		op, l, r = mirror(op), r, l
	case !rConst && (op == OpEq || op == OpNe):
		// Symmetric operators over two non-literal operands order them
		// canonically (a literal operand is already pinned to the right).
		if r.String() < l.String() {
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
func canonBoolTerms(terms []Expr, ren map[string]string, and bool) (out []Expr, absorbed bool) {
	var flat func(ts []Expr) bool
	flat = func(ts []Expr) bool {
		for _, t := range ts {
			c := canonExpr(t, ren)
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
			out = append(out, c)
		}
		return false
	}
	if flat(terms) {
		return nil, true
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	dedup := out[:0]
	for i, t := range out {
		if i > 0 && t.String() == out[i-1].String() {
			continue
		}
		dedup = append(dedup, t)
	}
	return dedup, false
}
