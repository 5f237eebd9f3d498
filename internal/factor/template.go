package factor

import (
	"fmt"

	"factordb/internal/relstore"
)

// Factor templates (Section 3.3, Figure 1): a template expresses a
// relationship pattern between classes of random variables; unrolling
// instantiates one concrete factor for every match of the pattern against
// a database relation. The MCMC evaluator never needs the fully unrolled
// graph — package ie scores templates lazily — but explicit unrolling is
// exactly what Figure 1's Panes C and E depict, and it lets small worlds
// be checked against the enumeration oracle.

// FieldVar binds a hidden database field (a row's column) to a graph
// variable.
type FieldVar struct {
	Row relstore.RowID
	Var *Var
}

// UnrolledGraph is a factor graph whose variables correspond to uncertain
// fields of one relation.
type UnrolledGraph struct {
	Graph *Graph
	// VarOf maps a row id to the hidden variable of its uncertain field.
	VarOf map[relstore.RowID]*Var
}

// Template instantiates factors over the hidden variables of rows.
type Template interface {
	// UnrollRow adds the factors anchored at the given row. rows lists
	// all rows of the relation in primary scan order; idx is the
	// position of the anchor row. Implementations must add each factor
	// exactly once (for pairwise templates, only when the anchor is the
	// lexicographically first endpoint).
	UnrollRow(g *UnrolledGraph, rows []RowBinding, idx int) error
}

// RowBinding pairs a row with its tuple for template matching.
type RowBinding struct {
	Row   relstore.RowID
	Tuple relstore.Tuple
	Var   *Var
}

// Unroll instantiates the templates over every row of the relation,
// creating one hidden variable per row (for the uncertain column) with
// the given domain. Rows are processed in ascending RowID order so
// templates can rely on sequence adjacency (e.g. linear-chain
// transitions within a document).
func Unroll(rel *relstore.Relation, uncertainCol int, dom *Domain, templates ...Template) (*UnrolledGraph, error) {
	if uncertainCol < 0 || uncertainCol >= rel.Schema().Arity() {
		return nil, fmt.Errorf("factor: uncertain column %d out of range for %q", uncertainCol, rel.Schema().Name)
	}
	ug := &UnrolledGraph{Graph: NewGraph(), VarOf: make(map[relstore.RowID]*Var, rel.Len())}
	var rows []RowBinding
	rel.Scan(func(id relstore.RowID, t relstore.Tuple) bool {
		v := ug.Graph.AddVar(fmt.Sprintf("%s[%d].%s", rel.Schema().Name, id, rel.Schema().Cols[uncertainCol].Name), dom)
		// Initialize the variable from the field's current value when it
		// is in the domain.
		if i := dom.Index(t[uncertainCol].String()); i >= 0 {
			v.Val = i
		}
		ug.VarOf[id] = v
		rows = append(rows, RowBinding{Row: id, Tuple: t.Clone(), Var: v})
		return true
	})
	for _, tpl := range templates {
		for i := range rows {
			if err := tpl.UnrollRow(ug, rows, i); err != nil {
				return nil, err
			}
		}
	}
	return ug, nil
}

// UnaryTemplate instantiates one factor per row whose score depends on
// the row's observed tuple and its hidden value (emission/bias factors).
type UnaryTemplate struct {
	Name string
	// Score maps (observed tuple, hidden value index) to a log score.
	Score func(t relstore.Tuple, val int) float64
}

// UnrollRow implements Template.
func (u *UnaryTemplate) UnrollRow(g *UnrolledGraph, rows []RowBinding, idx int) error {
	rb := rows[idx]
	_, err := g.Graph.AddFactor(u.Name, func(vals []int) float64 {
		return u.Score(rb.Tuple, vals[0])
	}, rb.Var)
	return err
}

// PairTemplate instantiates one factor per matching ordered pair of rows
// (anchor first). Match decides whether two rows are related —
// adjacency for transition factors, identical strings for skip factors,
// and so on.
type PairTemplate struct {
	Name string
	// Match reports whether rows a (anchor) and b participate, scanning
	// b over positions after the anchor only, so each pair unrolls once.
	Match func(rows []RowBinding, a, b int) bool
	// Score maps the two tuples and hidden values to a log score.
	Score func(ta, tb relstore.Tuple, va, vb int) float64
}

// UnrollRow implements Template.
func (p *PairTemplate) UnrollRow(g *UnrolledGraph, rows []RowBinding, idx int) error {
	a := rows[idx]
	for j := idx + 1; j < len(rows); j++ {
		if !p.Match(rows, idx, j) {
			continue
		}
		b := rows[j]
		if _, err := g.Graph.AddFactor(p.Name, func(vals []int) float64 {
			return p.Score(a.Tuple, b.Tuple, vals[0], vals[1])
		}, a.Var, b.Var); err != nil {
			return err
		}
	}
	return nil
}
