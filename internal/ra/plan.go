package ra

import "fmt"

// Plan is a logical relational-algebra plan node.
type Plan interface {
	String() string
	plan()
}

// Scan reads all rows of a stored relation under an alias.
type Scan struct {
	Table string
	Alias string // defaults to Table when empty
}

// NewScan builds a table scan. If alias is empty the table name is used.
func NewScan(table, alias string) *Scan {
	if alias == "" {
		alias = table
	}
	return &Scan{Table: table, Alias: alias}
}

func (*Scan) plan() {}

func (s *Scan) String() string {
	if s.Alias != s.Table {
		return fmt.Sprintf("Scan(%s AS %s)", s.Table, s.Alias)
	}
	return fmt.Sprintf("Scan(%s)", s.Table)
}

// Select filters rows by a boolean predicate.
type Select struct {
	Child Plan
	Pred  Expr
}

// NewSelect builds a selection.
func NewSelect(child Plan, pred Expr) *Select { return &Select{Child: child, Pred: pred} }

func (*Select) plan() {}

func (s *Select) String() string { return fmt.Sprintf("Select[%s](%s)", s.Pred, s.Child) }

// Project keeps only the listed columns (bag projection: multiplicities of
// collapsed rows add up, as required by the paper's multiset semantics for
// query answers under projection).
type Project struct {
	Child Plan
	Cols  []ColRef
}

// NewProject builds a projection.
func NewProject(child Plan, cols ...ColRef) *Project { return &Project{Child: child, Cols: cols} }

func (*Project) plan() {}

func (p *Project) String() string {
	s := "Project["
	for i, c := range p.Cols {
		if i > 0 {
			s += ", "
		}
		s += c.String()
	}
	return s + fmt.Sprintf("](%s)", p.Child)
}

// EquiCond is one equality condition of a join: left column = right column.
type EquiCond struct {
	Left  ColRef
	Right ColRef
}

// Join is a hash equi-join with an optional residual filter evaluated over
// the concatenated row. With no conditions and no filter it degenerates to
// a Cartesian product.
type Join struct {
	Left, Right Plan
	On          []EquiCond
	Filter      Expr // may be nil
}

// NewJoin builds an equi-join.
func NewJoin(left, right Plan, on []EquiCond, filter Expr) *Join {
	return &Join{Left: left, Right: right, On: on, Filter: filter}
}

func (*Join) plan() {}

func (j *Join) String() string {
	s := "Join["
	for i, c := range j.On {
		if i > 0 {
			s += ", "
		}
		s += c.Left.String() + "=" + c.Right.String()
	}
	s += "]"
	if j.Filter != nil {
		s += fmt.Sprintf("{%s}", j.Filter)
	}
	return fmt.Sprintf("%s(%s, %s)", s, j.Left, j.Right)
}

// AggFn enumerates aggregate functions.
type AggFn uint8

// Aggregate functions. FnCountIf counts rows satisfying Agg.Pred, which is
// how the planner lowers the paper's correlated COUNT(*) subqueries
// (Query 3) into a single incrementally maintainable group-aggregate.
const (
	FnCount AggFn = iota
	FnCountIf
	FnSum
	FnAvg
	FnMin
	FnMax
)

func (f AggFn) String() string {
	switch f {
	case FnCount:
		return "COUNT"
	case FnCountIf:
		return "COUNT_IF"
	case FnSum:
		return "SUM"
	case FnAvg:
		return "AVG"
	case FnMin:
		return "MIN"
	case FnMax:
		return "MAX"
	}
	return "?"
}

// Agg is one aggregate output of a GroupAgg.
type Agg struct {
	Fn   AggFn
	Arg  ColRef // ignored for FnCount / FnCountIf
	Pred Expr   // FnCountIf only
	As   string // output column name
}

// GroupAgg groups rows by the GroupBy columns and computes aggregates.
// With an empty GroupBy the plan always emits exactly one global row, even
// over empty input (COUNT(*) = 0), matching SQL semantics.
type GroupAgg struct {
	Child   Plan
	GroupBy []ColRef
	Aggs    []Agg
}

// NewGroupAgg builds a grouped aggregation.
func NewGroupAgg(child Plan, groupBy []ColRef, aggs ...Agg) *GroupAgg {
	return &GroupAgg{Child: child, GroupBy: groupBy, Aggs: aggs}
}

func (*GroupAgg) plan() {}

func (g *GroupAgg) String() string {
	s := "GroupAgg["
	for i, c := range g.GroupBy {
		if i > 0 {
			s += ", "
		}
		s += c.String()
	}
	s += ";"
	for i, a := range g.Aggs {
		if i > 0 {
			s += ", "
		}
		if a.Fn == FnCountIf {
			s += fmt.Sprintf(" %s(%s) AS %s", a.Fn, a.Pred, a.As)
		} else {
			s += fmt.Sprintf(" %s(%s) AS %s", a.Fn, a.Arg, a.As)
		}
	}
	return s + fmt.Sprintf("](%s)", g.Child)
}

// Distinct collapses multiplicities to one (SELECT DISTINCT).
type Distinct struct {
	Child Plan
}

// NewDistinct builds a duplicate-eliminating node.
func NewDistinct(child Plan) *Distinct { return &Distinct{Child: child} }

func (*Distinct) plan() {}

func (d *Distinct) String() string { return fmt.Sprintf("Distinct(%s)", d.Child) }
