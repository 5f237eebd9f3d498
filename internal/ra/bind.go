package ra

import (
	"fmt"

	"factordb/internal/relstore"
)

// BoundKind discriminates node types of a bound plan.
type BoundKind uint8

// Bound node kinds.
const (
	KScan BoundKind = iota
	KSelect
	KProject
	KJoin
	KGroupAgg
	KUnion
	KDiff
	KDistinct
	KOrderLimit
)

// BoundAgg is an aggregate with its argument resolved to a column index.
type BoundAgg struct {
	Fn     AggFn
	ArgIdx int   // -1 for COUNT / COUNT_IF
	Pred   BExpr // COUNT_IF only
	Out    relstore.Type
	As     string
}

// Bound is a plan node bound against a catalog: column references are
// resolved to row positions, expressions are type-checked, and every node
// carries its output RowSchema. The tree is consumed both by Eval in this
// package and by the delta operators in package ivm.
type Bound struct {
	Kind     BoundKind
	Schema   *RowSchema
	Children []*Bound
	// Source is the logical node this one was bound from. At the root of
	// a tree Bind returned it is the whole plan as bound: the caller's
	// plan itself, or its column-pruned rewrite.
	Source Plan

	// KScan
	Table string
	Alias string
	Rel   *relstore.Relation

	// KSelect
	Pred BExpr

	// KProject
	ProjIdx []int

	// KJoin
	LeftKey, RightKey []int
	Filter            BExpr // may be nil

	// KGroupAgg
	GroupIdx []int
	Aggs     []BoundAgg

	// KOrderLimit
	SortIdx  []int
	SortDesc []bool
	Limit    int64

	// fp memoizes Fingerprint; see fingerprint.go.
	fp string
}

// Bind resolves a logical plan against the database catalog and returns
// the column-pruned tree (see prune.go): every consumer — Eval, Stream,
// the ivm compiler, EXPLAIN, Fingerprint — sees the one narrow tree.
func Bind(db *relstore.DB, p Plan) (*Bound, error) {
	b, err := bindPlan(db, p)
	if err != nil {
		return nil, err
	}
	narrow := prunePlan(b, allCols(b.Schema.Arity()))
	if narrow == b.Source {
		return b, nil
	}
	return bindPlan(db, narrow)
}

// bindPlan binds p exactly as written, node for node.
func bindPlan(db *relstore.DB, p Plan) (*Bound, error) {
	switch n := p.(type) {
	case *Scan:
		return bindScan(db, n)
	case *Select:
		return bindSelect(db, n)
	case *Project:
		return bindProject(db, n)
	case *Join:
		return bindJoin(db, n)
	case *GroupAgg:
		return bindGroupAgg(db, n)
	case *Union:
		return bindUnion(db, n)
	case *Diff:
		return bindDiff(db, n)
	case *Distinct:
		return bindDistinct(db, n)
	case *OrderLimit:
		return bindOrderLimit(db, n)
	case nil:
		return nil, fmt.Errorf("ra: bind of nil plan")
	}
	return nil, fmt.Errorf("ra: unknown plan node %T", p)
}

func bindScan(db *relstore.DB, n *Scan) (*Bound, error) {
	rel, err := db.Relation(n.Table)
	if err != nil {
		return nil, err
	}
	rs := rel.Schema()
	sch := &RowSchema{Cols: make([]OutCol, rs.Arity())}
	for i, c := range rs.Cols {
		sch.Cols[i] = OutCol{Ref: ColRef{Rel: n.Alias, Col: c.Name}, Type: c.Type}
	}
	return &Bound{Kind: KScan, Schema: sch, Source: n, Table: n.Table, Alias: n.Alias, Rel: rel}, nil
}

func bindSelect(db *relstore.DB, n *Select) (*Bound, error) {
	child, err := bindPlan(db, n.Child)
	if err != nil {
		return nil, err
	}
	pred, err := BindPredicate(child.Schema, n.Pred)
	if err != nil {
		return nil, err
	}
	return &Bound{Kind: KSelect, Schema: child.Schema, Source: n, Children: []*Bound{child}, Pred: pred}, nil
}

func bindProject(db *relstore.DB, n *Project) (*Bound, error) {
	child, err := bindPlan(db, n.Child)
	if err != nil {
		return nil, err
	}
	if len(n.Cols) == 0 {
		return nil, fmt.Errorf("ra: projection with no columns")
	}
	idx := make([]int, len(n.Cols))
	sch := &RowSchema{Cols: make([]OutCol, len(n.Cols))}
	for i, ref := range n.Cols {
		j, err := child.Schema.Resolve(ref)
		if err != nil {
			return nil, err
		}
		idx[i] = j
		sch.Cols[i] = child.Schema.Cols[j]
	}
	return &Bound{Kind: KProject, Schema: sch, Source: n, Children: []*Bound{child}, ProjIdx: idx}, nil
}

func bindJoin(db *relstore.DB, n *Join) (*Bound, error) {
	left, err := bindPlan(db, n.Left)
	if err != nil {
		return nil, err
	}
	right, err := bindPlan(db, n.Right)
	if err != nil {
		return nil, err
	}
	// Reject duplicate (alias, column) pairs across the two sides: they
	// would make downstream references ambiguous in surprising ways.
	seen := make(map[ColRef]struct{}, left.Schema.Arity())
	for _, c := range left.Schema.Cols {
		seen[c.Ref] = struct{}{}
	}
	for _, c := range right.Schema.Cols {
		if _, dup := seen[c.Ref]; dup {
			return nil, fmt.Errorf("ra: join sides share column %s; use distinct aliases", c.Ref)
		}
	}
	sch := &RowSchema{Cols: append(append([]OutCol{}, left.Schema.Cols...), right.Schema.Cols...)}
	b := &Bound{Kind: KJoin, Schema: sch, Source: n, Children: []*Bound{left, right}}
	for _, cond := range n.On {
		li, err := left.Schema.Resolve(cond.Left)
		if err != nil {
			return nil, fmt.Errorf("ra: join condition %s=%s: %w", cond.Left, cond.Right, err)
		}
		ri, err := right.Schema.Resolve(cond.Right)
		if err != nil {
			return nil, fmt.Errorf("ra: join condition %s=%s: %w", cond.Left, cond.Right, err)
		}
		if !comparable2(left.Schema.Cols[li].Type, right.Schema.Cols[ri].Type) {
			return nil, fmt.Errorf("ra: join condition %s=%s compares %v with %v",
				cond.Left, cond.Right, left.Schema.Cols[li].Type, right.Schema.Cols[ri].Type)
		}
		b.LeftKey = append(b.LeftKey, li)
		b.RightKey = append(b.RightKey, ri)
	}
	if n.Filter != nil {
		f, err := BindPredicate(sch, n.Filter)
		if err != nil {
			return nil, err
		}
		b.Filter = f
	}
	return b, nil
}

func bindGroupAgg(db *relstore.DB, n *GroupAgg) (*Bound, error) {
	child, err := bindPlan(db, n.Child)
	if err != nil {
		return nil, err
	}
	if len(n.Aggs) == 0 {
		return nil, fmt.Errorf("ra: group-aggregate with no aggregates")
	}
	b := &Bound{Kind: KGroupAgg, Source: n, Children: []*Bound{child}}
	sch := &RowSchema{}
	names := make(map[string]struct{})
	for _, g := range n.GroupBy {
		j, err := child.Schema.Resolve(g)
		if err != nil {
			return nil, err
		}
		b.GroupIdx = append(b.GroupIdx, j)
		sch.Cols = append(sch.Cols, child.Schema.Cols[j])
		names[child.Schema.Cols[j].Ref.Col] = struct{}{}
	}
	for _, a := range n.Aggs {
		if a.As == "" {
			return nil, fmt.Errorf("ra: aggregate %s missing output name", a.Fn)
		}
		if _, dup := names[a.As]; dup {
			return nil, fmt.Errorf("ra: duplicate output column %q in group-aggregate", a.As)
		}
		names[a.As] = struct{}{}
		ba := BoundAgg{Fn: a.Fn, ArgIdx: -1, As: a.As}
		switch a.Fn {
		case FnCount:
			ba.Out = relstore.TInt
		case FnCountIf:
			if a.Pred == nil {
				return nil, fmt.Errorf("ra: COUNT_IF %q missing predicate", a.As)
			}
			p, err := BindPredicate(child.Schema, a.Pred)
			if err != nil {
				return nil, err
			}
			ba.Pred = p
			ba.Out = relstore.TInt
		case FnSum, FnAvg, FnMin, FnMax:
			j, err := child.Schema.Resolve(a.Arg)
			if err != nil {
				return nil, err
			}
			ba.ArgIdx = j
			argT := child.Schema.Cols[j].Type
			switch a.Fn {
			case FnSum:
				if argT != relstore.TInt && argT != relstore.TFloat {
					return nil, fmt.Errorf("ra: SUM over non-numeric column %s", a.Arg)
				}
				ba.Out = argT
			case FnAvg:
				if argT != relstore.TInt && argT != relstore.TFloat {
					return nil, fmt.Errorf("ra: AVG over non-numeric column %s", a.Arg)
				}
				ba.Out = relstore.TFloat
			case FnMin, FnMax:
				if argT == relstore.TBool {
					return nil, fmt.Errorf("ra: %s over boolean column %s", a.Fn, a.Arg)
				}
				ba.Out = argT
			}
		default:
			return nil, fmt.Errorf("ra: unknown aggregate function %d", a.Fn)
		}
		sch.Cols = append(sch.Cols, OutCol{Ref: ColRef{Col: a.As}, Type: ba.Out})
		b.Aggs = append(b.Aggs, ba)
	}
	b.Schema = sch
	return b, nil
}
