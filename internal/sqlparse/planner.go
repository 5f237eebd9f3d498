package sqlparse

import (
	"fmt"
	"sync"

	"factordb/internal/ra"
	"factordb/internal/relstore"
)

// parserPool recycles parsers, and with them the arena arrays backing
// every syntax tree, across parses.
var parserPool = sync.Pool{New: func() any { return new(parser) }}

// parse parses sql on a pooled parser, with args read as the literals
// of its ? placeholders (nil leaves them unbound), checks that use
// admits the statement, and hands the tree to build. It is the one
// place a syntax tree exists: the tree lives in the parser's arena,
// which the next parse reuses, so build keeps nothing of it.
func parse(sql string, args []any, use Use, build func(*Statement) error) error {
	p := parserPool.Get().(*parser)
	defer parserPool.Put(p)
	p.reset(sql, args)
	stmt, err := p.parseInput()
	if err == nil {
		err = misuse(sql, stmt, use)
	}
	if err == nil {
		err = build(stmt)
	}
	return err
}

// Compile parses the SQL text and lowers it to a relational-algebra plan
// plus the result-level ordering spec (ORDER BY / LIMIT clauses that act
// on the final probabilistic answer rather than inside each world).
func Compile(sql string) (plan ra.Plan, spec ra.ResultSpec, err error) {
	err = parse(sql, nil, UseQuery, func(stmt *Statement) (err error) {
		if stmt.Explain != nil {
			return posErrf(sql, 0, explainOnlyQuery)
		}
		plan, spec, err = planQuery(stmt.Select, nil)
		return err
	})
	return plan, spec, err
}

// planQuery lowers a parsed query to a relational-algebra plan:
// single-alias predicates are pushed below joins, cross-alias equalities
// become hash-join conditions, correlated COUNT(*)-subquery equalities
// are rewritten into one shared group-aggregate join (making Query 3
// incrementally maintainable), and HAVING becomes a selection over the
// group-aggregate output (with hidden aggregates for conditions not in
// the select list). Nothing downstream moves a predicate: a subquery's
// count filter sits on its group-aggregate, a conjunct over two aliases
// right above the join that brings both in. With a schema, an
// unqualified WHERE column is first qualified from the catalog (see
// qualifyWhere); without one, such a column in a multi-table query
// leaves its conjunct at the top.
//
// ORDER BY / LIMIT split between the plan and the returned ResultSpec:
// an ORDER BY over real output columns with a LIMIT lowers to a
// per-world top-k operator (a tuple's marginal becomes its probability
// of ranking in the top k of a sampled world), while any ordering that
// references the marginal pseudo-column P — which only exists across
// worlds — is returned in the ResultSpec for the result-assembly layer
// to apply after estimation. The spec always carries the presentation
// order and final truncation, so every consumer returns rows the same
// way.
func planQuery(q *Query, schema *relstore.DB) (ra.Plan, ra.ResultSpec, error) {
	var spec ra.ResultSpec
	if len(q.From) == 0 {
		return nil, spec, fmt.Errorf("sqlparse: query has no FROM clause")
	}
	aliases := make(map[string]bool)
	fromPos := make(map[string]int)
	for i, tr := range q.From {
		if aliases[tr.Alias] {
			return nil, spec, fmt.Errorf("sqlparse: duplicate table alias %q", tr.Alias)
		}
		aliases[tr.Alias] = true
		fromPos[tr.Alias] = i
	}

	singleTable := ""
	if len(q.From) == 1 {
		singleTable = q.From[0].Alias
	}

	// Partition WHERE conjuncts. Subquery-shaped predicates (COUNT(*)
	// equalities, EXISTS, IN-subqueries) lower to auxiliary group-
	// aggregate plans joined in on their correlation column; everything
	// else classifies as a scan filter, a join key, or a cross filter.
	perAlias := make(map[string][]ra.Expr)
	var joinConds []ra.EquiCond
	crossAt := make(map[int][]ra.Expr)
	var topFilters []ra.Expr
	subEqIndex := 0
	var groupPlans []groupPlan

	qualifyWhere(q, schema)
	for _, c := range q.Where {
		switch {
		case c.SubEq != nil:
			gp, err := lowerSubEq(c.SubEq, aliases, subEqIndex)
			if err != nil {
				return nil, spec, err
			}
			subEqIndex++
			groupPlans = append(groupPlans, *gp)
			continue
		case c.Exists != nil:
			gp, err := lowerExists(c.Exists, aliases, subEqIndex)
			if err != nil {
				return nil, spec, err
			}
			subEqIndex++
			groupPlans = append(groupPlans, *gp)
			continue
		case c.In != nil && c.In.Sub != nil:
			left := c.Left
			if left.Qual == "" { // the one table in FROM, if there is one
				left.Qual = singleTable
			}
			gp, err := lowerInSub(left, c.In.Sub, aliases, subEqIndex)
			if err != nil {
				return nil, spec, err
			}
			subEqIndex++
			groupPlans = append(groupPlans, *gp)
			continue
		}
		owner, expr, isJoin, jc, err := classifyCond(c, aliases, singleTable)
		if err != nil {
			return nil, spec, err
		}
		switch {
		case isJoin:
			joinConds = append(joinConds, jc)
		case owner != "":
			perAlias[owner] = append(perAlias[owner], expr)
		default:
			l, lok := fromPos[c.Left.Qual]
			r, rok := fromPos[c.Right.Col.Qual]
			if lok && rok {
				crossAt[max(l, r)] = append(crossAt[max(l, r)], expr)
			} else {
				topFilters = append(topFilters, expr)
			}
		}
	}

	// Base plans: scan each table, pushing its private predicates.
	type tagged struct {
		plan    ra.Plan
		aliases map[string]bool
	}
	var pending []tagged
	for _, tr := range q.From {
		var p ra.Plan = ra.NewScan(tr.Name, tr.Alias)
		if preds := perAlias[tr.Alias]; len(preds) > 0 {
			p = ra.NewSelect(p, ra.And(preds...))
		}
		pending = append(pending, tagged{plan: p, aliases: map[string]bool{tr.Alias: true}})
	}
	for _, gp := range groupPlans {
		pending = append(pending, tagged{plan: gp.plan, aliases: map[string]bool{gp.alias: true}})
		joinConds = append(joinConds, gp.joinCond)
	}

	// Left-deep join in FROM order, picking up applicable equi-conditions.
	cur := pending[0]
	for i, nxt := range pending[1:] {
		var on []ra.EquiCond
		var rest []ra.EquiCond
		for _, jc := range joinConds {
			l, r := jc.Left.Rel, jc.Right.Rel
			switch {
			case cur.aliases[l] && nxt.aliases[r]:
				on = append(on, jc)
			case cur.aliases[r] && nxt.aliases[l]:
				on = append(on, ra.EquiCond{Left: jc.Right, Right: jc.Left})
			default:
				rest = append(rest, jc)
			}
		}
		joinConds = rest
		cur.plan = ra.NewJoin(cur.plan, nxt.plan, on, nil)
		for a := range nxt.aliases {
			cur.aliases[a] = true
		}
		if f := crossAt[i+1]; len(f) > 0 {
			cur.plan = ra.NewSelect(cur.plan, ra.And(f...))
		}
	}
	// Any join condition not consumed (an unqualified IN-subquery column)
	// becomes a residual filter.
	for _, jc := range joinConds {
		topFilters = append(topFilters, ra.Eq(ra.Col(jc.Left), ra.Col(jc.Right)))
	}
	plan := cur.plan
	if len(topFilters) > 0 {
		plan = ra.NewSelect(plan, ra.And(topFilters...))
	}
	lowered, err := lowerSelectList(q, plan)
	if err != nil {
		return nil, spec, err
	}
	if q.Distinct {
		lowered = ra.NewDistinct(lowered)
	}
	return lowerOrderLimit(q, lowered, spec)
}

// qualifyWhere qualifies, in place, each unqualified column of a
// multi-table query's WHERE conjuncts by the one FROM table whose schema
// has a column of that name, so that placement puts the conjunct where
// that table is scanned. A column that no table or several tables have
// stays unqualified, and binding reports it as unknown or ambiguous.
func qualifyWhere(q *Query, schema *relstore.DB) {
	if schema == nil || len(q.From) < 2 {
		return
	}
	qualify := func(col ColName) ColName {
		if col.Qual != "" {
			return col
		}
		for _, tr := range q.From {
			if rel, err := schema.Relation(tr.Name); err == nil && rel.Schema().ColIndex(col.Name) >= 0 {
				if col.Qual != "" { // several tables have it
					col.Qual = ""
					return col
				}
				col.Qual = tr.Alias
			}
		}
		return col
	}
	for i := range q.Where {
		c := &q.Where[i]
		c.Left = qualify(c.Left)
		if c.Right.IsCol {
			c.Right.Col = qualify(c.Right.Col)
		}
	}
}

// lowerOrderLimit splits ORDER BY / LIMIT between a per-world top-k plan
// node and the result-level spec, as documented on PlanQuery.
func lowerOrderLimit(q *Query, plan ra.Plan, spec ra.ResultSpec) (ra.Plan, ra.ResultSpec, error) {
	if q.Limit > 0 {
		spec.Limit = q.Limit
	}
	if len(q.OrderBy) == 0 {
		// A bare LIMIT truncates the default presentation order
		// (descending marginal) at the result level.
		return plan, spec, nil
	}

	aliases := make(map[string]bool, len(q.From))
	for _, tr := range q.From {
		aliases[tr.Alias] = true
	}
	outNames := ra.OutputColumns(plan)
	outIndex := func(col ColName) (int, error) {
		if col.Qual != "" && !aliases[col.Qual] {
			return 0, fmt.Errorf("sqlparse: unknown table alias %q in ORDER BY %s", col.Qual, col)
		}
		found := -1
		for i, name := range outNames {
			if name != col.Name {
				continue
			}
			// A qualified key must not match a select item written with a
			// different qualifier.
			if col.Qual != "" && i < len(q.Items) {
				if iq := q.Items[i].Col.Qual; iq != "" && iq != col.Qual {
					continue
				}
			}
			if found >= 0 {
				return 0, fmt.Errorf("sqlparse: ORDER BY column %s is ambiguous in the select list", col)
			}
			found = i
		}
		if found < 0 {
			return 0, fmt.Errorf("sqlparse: ORDER BY column %s is not in the select list", col)
		}
		return found, nil
	}

	// The unqualified column P names the estimated marginal unless the
	// select list outputs a real column called P.
	isProb := func(col ColName) bool {
		if col.Qual != "" || col.Name != "P" {
			return false
		}
		for _, name := range outNames {
			if name == "P" {
				return false
			}
		}
		return true
	}

	hasProb := false
	for _, item := range q.OrderBy {
		if isProb(item.Col) {
			hasProb = true
		}
	}

	for _, item := range q.OrderBy {
		if isProb(item.Col) {
			spec.Order = append(spec.Order, ra.ResultOrder{ByProb: true, Desc: item.Desc})
			continue
		}
		idx, err := outIndex(item.Col)
		if err != nil {
			return nil, spec, err
		}
		spec.Order = append(spec.Order, ra.ResultOrder{Index: idx, Desc: item.Desc})
	}

	// A pure column ordering with a LIMIT bounds the answer inside every
	// sampled world: lower it to the incrementally maintainable top-k
	// operator. Ordering by P cannot be evaluated within one world, and
	// ordering without a LIMIT does not change bag membership, so both
	// stay result-level only.
	if !hasProb && q.Limit > 0 {
		keys := make([]ra.SortKey, len(q.OrderBy))
		for i, item := range q.OrderBy {
			keys[i] = ra.SortKey{Col: ra.C(item.Col.Qual, item.Col.Name), Desc: item.Desc}
		}
		plan = ra.NewOrderLimit(plan, keys, q.Limit)
	}
	return plan, spec, nil
}

// classifyCond decides whether a simple conjunct is a pushable
// single-alias predicate, a join condition, or a top-level filter.
func classifyCond(c Cond, aliases map[string]bool, singleTable string) (owner string, expr ra.Expr, isJoin bool, jc ra.EquiCond, err error) {
	qualOf := func(col ColName) (string, error) {
		if col.Qual == "" {
			return singleTable, nil // "" means unknown when multiple tables
		}
		if !aliases[col.Qual] {
			return "", fmt.Errorf("sqlparse: unknown table alias %q in %s", col.Qual, col)
		}
		return col.Qual, nil
	}
	lq, err := qualOf(c.Left)
	if err != nil {
		return "", nil, false, ra.EquiCond{}, err
	}
	lref := ra.C(c.Left.Qual, c.Left.Name)
	if c.In != nil {
		expr, err := inListExpr(lref, c.In)
		if err != nil {
			return "", nil, false, ra.EquiCond{}, err
		}
		return lq, expr, false, ra.EquiCond{}, nil
	}
	op, err := cmpOpOf(c.Op)
	if err != nil {
		return "", nil, false, ra.EquiCond{}, err
	}
	if !c.Right.IsCol {
		v, err := operandConst(c.Right)
		if err != nil {
			return "", nil, false, ra.EquiCond{}, err
		}
		return lq, ra.Cmp(op, ra.Col(lref), ra.Const(v)), false, ra.EquiCond{}, nil
	}
	rq, err := qualOf(c.Right.Col)
	if err != nil {
		return "", nil, false, ra.EquiCond{}, err
	}
	rref := ra.C(c.Right.Col.Qual, c.Right.Col.Name)
	if lq != "" && lq == rq {
		return lq, ra.Cmp(op, ra.Col(lref), ra.Col(rref)), false, ra.EquiCond{}, nil
	}
	if c.Op == "=" && lq != "" && rq != "" && lq != rq {
		return "", nil, true, ra.EquiCond{Left: lref, Right: rref}, nil
	}
	return "", ra.Cmp(op, ra.Col(lref), ra.Col(rref)), false, ra.EquiCond{}, nil
}

func cmpOpOf(op string) (ra.CmpOp, error) {
	switch op {
	case "=":
		return ra.OpEq, nil
	case "!=":
		return ra.OpNe, nil
	case "<":
		return ra.OpLt, nil
	case "<=":
		return ra.OpLe, nil
	case ">":
		return ra.OpGt, nil
	case ">=":
		return ra.OpGe, nil
	}
	return 0, fmt.Errorf("sqlparse: unsupported operator %q", op)
}

// operandConst is the constant a literal operand plans as. An unbound
// ? placeholder is a planning error: a statement with placeholders plans
// only when parsed with its arguments (see Compiled.Bind).
func operandConst(o Operand) (relstore.Value, error) {
	switch {
	case o.IsParam:
		return relstore.Value{}, fmt.Errorf("sqlparse: placeholder ?%d is unbound (prepare the statement and pass arguments)", o.Param+1)
	case o.IsStr:
		return relstore.String(o.Str), nil
	case o.IsInt:
		return relstore.Int(o.Int), nil
	}
	return relstore.Float(o.Float), nil
}

// inListExpr lowers col IN (v1, ..., vn) to an OR of equalities — which
// ra.Prepare's canonical form sorts and dedups, so spelling order doesn't split
// fingerprints — and col NOT IN (...) to an AND of inequalities.
func inListExpr(ref ra.ColRef, in *InPred) (ra.Expr, error) {
	terms := make([]ra.Expr, len(in.Values))
	for i, v := range in.Values {
		val, err := operandConst(v)
		if err != nil {
			return nil, err
		}
		op := ra.OpEq
		if in.Not {
			op = ra.OpNe
		}
		terms[i] = ra.Cmp(op, ra.Col(ref), ra.Const(val))
	}
	if in.Not {
		return ra.And(terms...), nil
	}
	return ra.Or(terms...), nil
}

// groupPlan is one auxiliary group-aggregate produced by a subquery-
// shaped predicate, under its filter over the counts, inner-joined into
// the outer query on its correlation column.
type groupPlan struct {
	plan     ra.Plan
	alias    string
	joinCond ra.EquiCond
}

// extractCorr splits a subquery's conjuncts into the single correlation
// equality (linking the subquery alias to an outer alias) and the local
// predicates, requalified onto the shared group-scan alias.
func extractCorr(sq SubQuery, outer map[string]bool, galias string) (outerCol ColName, innerCol string, preds []ra.Expr, err error) {
	corrSeen := false
	for _, c := range sq.Conds {
		// A correlation conjunct links the subquery alias with an
		// outer alias via equality.
		if c.Right.IsCol && c.Op == "=" {
			lIn := c.Left.Qual == sq.Table.Alias
			rIn := c.Right.Col.Qual == sq.Table.Alias
			lOut := outer[c.Left.Qual]
			rOut := outer[c.Right.Col.Qual]
			if (lIn && rOut) || (rIn && lOut) {
				if corrSeen {
					err = fmt.Errorf("sqlparse: subquery has multiple correlation predicates")
					return
				}
				corrSeen = true
				if lIn {
					innerCol, outerCol = c.Left.Name, c.Right.Col
				} else {
					innerCol, outerCol = c.Right.Col.Name, c.Left
				}
				continue
			}
		}
		// Anything else must be local to the subquery; requalify it
		// onto the shared group scan alias.
		expr, lerr := localSubCond(c, sq.Table.Alias, galias)
		if lerr != nil {
			err = lerr
			return
		}
		preds = append(preds, expr)
	}
	if !corrSeen {
		err = fmt.Errorf("sqlparse: subquery on %q has no correlation predicate", sq.Table.Name)
	}
	return
}

// lowerSubEq rewrites (SELECT COUNT(*) FROM t a WHERE φA AND corr) =
// (SELECT COUNT(*) FROM t b WHERE φB AND corr) into a single group-
// aggregate over t grouped by the correlation column with two COUNT_IF
// aggregates, to be joined with the outer query on the correlation pair.
func lowerSubEq(se *SubEq, outer map[string]bool, idx int) (*groupPlan, error) {
	if se.A.Table.Name != se.B.Table.Name {
		return nil, fmt.Errorf("sqlparse: subquery equality over different tables %q and %q is not supported",
			se.A.Table.Name, se.B.Table.Name)
	}
	galias := fmt.Sprintf("_g%d", idx)

	outA, inA, predsA, err := extractCorr(se.A, outer, galias)
	if err != nil {
		return nil, err
	}
	outB, inB, predsB, err := extractCorr(se.B, outer, galias)
	if err != nil {
		return nil, err
	}
	if inA != inB || outA != outB {
		return nil, fmt.Errorf("sqlparse: subqueries must correlate on the same column pair (got %s~%s and %s~%s)",
			outA, inA, outB, inB)
	}

	cntA := fmt.Sprintf("_sqa%d", idx)
	cntB := fmt.Sprintf("_sqb%d", idx)
	agg := ra.NewGroupAgg(
		ra.NewScan(se.A.Table.Name, galias),
		[]ra.ColRef{ra.C(galias, inA)},
		ra.Agg{Fn: ra.FnCountIf, Pred: ra.And(predsA...), As: cntA},
		ra.Agg{Fn: ra.FnCountIf, Pred: ra.And(predsB...), As: cntB},
	)
	return &groupPlan{
		plan:     ra.NewSelect(agg, ra.Eq(ra.Col(ra.C("", cntA)), ra.Col(ra.C("", cntB)))),
		alias:    galias,
		joinCond: ra.EquiCond{Left: ra.C(outA.Qual, outA.Name), Right: ra.C(galias, inA)},
	}, nil
}

// lowerExists rewrites EXISTS (SELECT * FROM t a WHERE φ AND corr) into
// a group-aggregate over t grouped by the correlation column with one
// COUNT_IF(φ) aggregate; the outer query joins on the correlation pair
// and keeps rows whose count is at least one. The inner join already
// drops outer rows with no partner group, which is exactly EXISTS
// semantics (and why NOT EXISTS cannot be expressed this way — the
// parser rejects it).
func lowerExists(sq *SubQuery, outer map[string]bool, idx int) (*groupPlan, error) {
	galias := fmt.Sprintf("_g%d", idx)
	outerCol, innerCol, preds, err := extractCorr(*sq, outer, galias)
	if err != nil {
		return nil, err
	}
	cnt := fmt.Sprintf("_sqe%d", idx)
	agg := ra.NewGroupAgg(
		ra.NewScan(sq.Table.Name, galias),
		[]ra.ColRef{ra.C(galias, innerCol)},
		ra.Agg{Fn: ra.FnCountIf, Pred: ra.And(preds...), As: cnt},
	)
	return &groupPlan{
		plan:     ra.NewSelect(agg, ra.Cmp(ra.OpGe, ra.Col(ra.C("", cnt)), ra.Const(relstore.Int(1)))),
		alias:    galias,
		joinCond: ra.EquiCond{Left: ra.C(outerCol.Qual, outerCol.Name), Right: ra.C(galias, innerCol)},
	}, nil
}

// lowerInSub rewrites col IN (SELECT c FROM t a WHERE φ) through the
// same machinery as EXISTS: the correlation is the implicit equality
// col = c, and φ must be local to the subquery.
func lowerInSub(left ColName, isub *InSub, outer map[string]bool, idx int) (*groupPlan, error) {
	if left.Qual != "" && !outer[left.Qual] {
		return nil, fmt.Errorf("sqlparse: unknown table alias %q in %s", left.Qual, left)
	}
	if isub.Col.Qual != "" && isub.Col.Qual != isub.Table.Alias {
		return nil, fmt.Errorf("sqlparse: IN subquery selects foreign alias %q", isub.Col.Qual)
	}
	galias := fmt.Sprintf("_g%d", idx)
	var preds []ra.Expr
	for _, c := range isub.Conds {
		expr, err := localSubCond(c, isub.Table.Alias, galias)
		if err != nil {
			return nil, err
		}
		preds = append(preds, expr)
	}
	cnt := fmt.Sprintf("_sqe%d", idx)
	agg := ra.NewGroupAgg(
		ra.NewScan(isub.Table.Name, galias),
		[]ra.ColRef{ra.C(galias, isub.Col.Name)},
		ra.Agg{Fn: ra.FnCountIf, Pred: ra.And(preds...), As: cnt},
	)
	return &groupPlan{
		plan:     ra.NewSelect(agg, ra.Cmp(ra.OpGe, ra.Col(ra.C("", cnt)), ra.Const(relstore.Int(1)))),
		alias:    galias,
		joinCond: ra.EquiCond{Left: ra.C(left.Qual, left.Name), Right: ra.C(galias, isub.Col.Name)},
	}, nil
}

// localSubCond requalifies a subquery-local conjunct onto the group alias.
func localSubCond(c Cond, subAlias, galias string) (ra.Expr, error) {
	requal := func(col ColName) (ra.ColRef, error) {
		switch col.Qual {
		case "", subAlias:
			return ra.C(galias, col.Name), nil
		default:
			return ra.ColRef{}, fmt.Errorf("sqlparse: subquery predicate references foreign alias %q", col.Qual)
		}
	}
	if c.In != nil {
		l, err := requal(c.Left)
		if err != nil {
			return nil, err
		}
		return inListExpr(l, c.In)
	}
	op, err := cmpOpOf(c.Op)
	if err != nil {
		return nil, err
	}
	l, err := requal(c.Left)
	if err != nil {
		return nil, err
	}
	if !c.Right.IsCol {
		v, err := operandConst(c.Right)
		if err != nil {
			return nil, err
		}
		return ra.Cmp(op, ra.Col(l), ra.Const(v)), nil
	}
	r, err := requal(c.Right.Col)
	if err != nil {
		return nil, err
	}
	return ra.Cmp(op, ra.Col(l), ra.Col(r)), nil
}

// lowerSelectList applies the final aggregation/projection. HAVING
// lowers to a selection between the group-aggregate and the projection,
// so it can reference group columns and aggregate outputs — including
// aggregates absent from the select list, which become hidden aggregate
// columns projected away afterwards.
func lowerSelectList(q *Query, child ra.Plan) (ra.Plan, error) {
	hasAgg := false
	for _, it := range q.Items {
		if it.Agg != "" {
			hasAgg = true
		}
	}
	for _, hc := range q.Having {
		if hc.Left.Agg != "" {
			hasAgg = true
		}
	}
	if !hasAgg {
		if len(q.GroupBy) > 0 {
			return nil, fmt.Errorf("sqlparse: GROUP BY without aggregates is not supported")
		}
		if len(q.Having) > 0 {
			return nil, fmt.Errorf("sqlparse: HAVING requires aggregation (use WHERE for row filters)")
		}
		cols := make([]ra.ColRef, len(q.Items))
		for i, it := range q.Items {
			cols[i] = ra.C(it.Col.Qual, it.Col.Name)
		}
		return ra.NewProject(child, cols...), nil
	}

	groupSet := make(map[ColName]bool, len(q.GroupBy))
	groupRefs := make([]ra.ColRef, len(q.GroupBy))
	for i, g := range q.GroupBy {
		groupSet[g] = true
		groupRefs[i] = ra.C(g.Qual, g.Name)
	}
	var aggs []ra.Agg
	outCols := make([]ra.ColRef, 0, len(q.Items))
	for i, it := range q.Items {
		if it.Agg == "" {
			if !groupSet[it.Col] {
				return nil, fmt.Errorf("sqlparse: column %s must appear in GROUP BY", it.Col)
			}
			outCols = append(outCols, ra.C(it.Col.Qual, it.Col.Name))
			continue
		}
		name := it.As
		if name == "" {
			name = fmt.Sprintf("%s_%d", it.Agg, i)
		}
		a, err := aggFor(it, name)
		if err != nil {
			return nil, err
		}
		aggs = append(aggs, a)
		outCols = append(outCols, ra.C("", name))
	}

	// Lower HAVING conjuncts against the group-aggregate output. An
	// aggregate call reuses the matching select-list aggregate when one
	// exists; otherwise a hidden aggregate is added and projected away.
	var havingExprs []ra.Expr
	for i, hc := range q.Having {
		op, err := cmpOpOf(hc.Op)
		if err != nil {
			return nil, err
		}
		var left ra.ColRef
		if hc.Left.Agg != "" {
			name := findAgg(aggs, hc.Left)
			if name == "" {
				name = fmt.Sprintf("_hv%d", i)
				a, err := aggFor(hc.Left, name)
				if err != nil {
					return nil, err
				}
				aggs = append(aggs, a)
			}
			left = ra.C("", name)
		} else {
			left = ra.C(hc.Left.Col.Qual, hc.Left.Col.Name)
		}
		var rhs ra.Expr
		if hc.Right.IsCol {
			rhs = ra.Col(ra.C(hc.Right.Col.Qual, hc.Right.Col.Name))
		} else {
			v, err := operandConst(hc.Right)
			if err != nil {
				return nil, err
			}
			rhs = ra.Const(v)
		}
		havingExprs = append(havingExprs, ra.Cmp(op, ra.Col(left), rhs))
	}

	var plan ra.Plan = ra.NewGroupAgg(child, groupRefs, aggs...)
	if len(havingExprs) > 0 {
		plan = ra.NewSelect(plan, ra.And(havingExprs...))
	}
	return ra.NewProject(plan, outCols...), nil
}

// aggFor builds the ra aggregate for one aggregate call.
func aggFor(it SelectItem, name string) (ra.Agg, error) {
	a := ra.Agg{As: name}
	switch it.Agg {
	case "COUNT":
		a.Fn = ra.FnCount
	case "SUM":
		a.Fn = ra.FnSum
		a.Arg = ra.C(it.Arg.Qual, it.Arg.Name)
	case "AVG":
		a.Fn = ra.FnAvg
		a.Arg = ra.C(it.Arg.Qual, it.Arg.Name)
	case "MIN":
		a.Fn = ra.FnMin
		a.Arg = ra.C(it.Arg.Qual, it.Arg.Name)
	case "MAX":
		a.Fn = ra.FnMax
		a.Arg = ra.C(it.Arg.Qual, it.Arg.Name)
	default:
		return ra.Agg{}, fmt.Errorf("sqlparse: unsupported aggregate %q", it.Agg)
	}
	return a, nil
}

// findAgg returns the output name of an existing aggregate semantically
// equal to the call (COUNT ignores its argument: with no NULLs in the
// engine, COUNT(col) and COUNT(*) count the same rows).
func findAgg(aggs []ra.Agg, it SelectItem) string {
	want, err := aggFor(it, "_probe")
	if err != nil {
		return ""
	}
	for _, a := range aggs {
		if a.Fn != want.Fn {
			continue
		}
		if a.Fn == ra.FnCount || a.Arg == want.Arg {
			return a.As
		}
	}
	return ""
}
