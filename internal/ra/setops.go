package ra

import (
	"fmt"

	"factordb/internal/relstore"
)

// Union is bag union (UNION ALL): multiplicities add. Column names come
// from the left input; arities and types must match positionally.
type Union struct {
	Left, Right Plan
}

// NewUnion builds a bag union.
func NewUnion(left, right Plan) *Union { return &Union{Left: left, Right: right} }

func (*Union) plan() {}

func (u *Union) String() string { return fmt.Sprintf("Union(%s, %s)", u.Left, u.Right) }

// Diff is bag difference with monus semantics (EXCEPT ALL): the output
// multiplicity is max(0, left − right).
type Diff struct {
	Left, Right Plan
}

// NewDiff builds a bag difference.
func NewDiff(left, right Plan) *Diff { return &Diff{Left: left, Right: right} }

func (*Diff) plan() {}

func (d *Diff) String() string { return fmt.Sprintf("Diff(%s, %s)", d.Left, d.Right) }

// Distinct collapses multiplicities to one (SELECT DISTINCT).
type Distinct struct {
	Child Plan
}

// NewDistinct builds a duplicate-eliminating node.
func NewDistinct(child Plan) *Distinct { return &Distinct{Child: child} }

func (*Distinct) plan() {}

func (d *Distinct) String() string { return fmt.Sprintf("Distinct(%s)", d.Child) }

// bindSetOperands binds both sides of a union/difference and checks that
// the schemas are positionally compatible.
func bindSetOperands(db *relstore.DB, left, right Plan, what string) (*Bound, *Bound, error) {
	bl, err := bindPlan(db, left)
	if err != nil {
		return nil, nil, err
	}
	br, err := bindPlan(db, right)
	if err != nil {
		return nil, nil, err
	}
	if bl.Schema.Arity() != br.Schema.Arity() {
		return nil, nil, fmt.Errorf("ra: %s operands have arities %d and %d",
			what, bl.Schema.Arity(), br.Schema.Arity())
	}
	for i := range bl.Schema.Cols {
		lt, rt := bl.Schema.Cols[i].Type, br.Schema.Cols[i].Type
		if lt != rt {
			return nil, nil, fmt.Errorf("ra: %s column %d has types %v and %v", what, i, lt, rt)
		}
	}
	return bl, br, nil
}

func bindUnion(db *relstore.DB, n *Union) (*Bound, error) {
	bl, br, err := bindSetOperands(db, n.Left, n.Right, "UNION")
	if err != nil {
		return nil, err
	}
	return &Bound{Kind: KUnion, Schema: bl.Schema, Source: n, Children: []*Bound{bl, br}}, nil
}

func bindDiff(db *relstore.DB, n *Diff) (*Bound, error) {
	bl, br, err := bindSetOperands(db, n.Left, n.Right, "EXCEPT")
	if err != nil {
		return nil, err
	}
	return &Bound{Kind: KDiff, Schema: bl.Schema, Source: n, Children: []*Bound{bl, br}}, nil
}

func bindDistinct(db *relstore.DB, n *Distinct) (*Bound, error) {
	child, err := bindPlan(db, n.Child)
	if err != nil {
		return nil, err
	}
	return &Bound{Kind: KDistinct, Schema: child.Schema, Source: n, Children: []*Bound{child}}, nil
}
