// Package ra implements logical relational-algebra plans with bag
// (multiset) semantics over the relstore engine: scans, selections,
// projections, equi-joins with residual filters, and grouped aggregation
// (COUNT(*), conditional COUNT, SUM, AVG, MIN, MAX).
//
// Plans are first bound against a database catalog (resolving column
// references and checking types) and the resulting Bound tree is shared by
// two consumers: the full evaluator in this package (used by the naive
// query evaluator, Algorithm 3 of the paper) and the incremental
// view-maintenance engine in package ivm (Algorithm 1).
package ra

import (
	"fmt"

	"factordb/internal/relstore"
)

// ColRef names a column, optionally qualified by a relation alias.
// An empty Rel matches any alias provided the column name is unambiguous.
type ColRef struct {
	Rel string
	Col string
}

// C is shorthand for constructing a qualified column reference.
func C(rel, col string) ColRef { return ColRef{Rel: rel, Col: col} }

// String renders the reference as it would appear in SQL.
func (c ColRef) String() string {
	if c.Rel == "" {
		return c.Col
	}
	return c.Rel + "." + c.Col
}

// OutCol is one column of a plan's output row.
type OutCol struct {
	Ref  ColRef
	Type relstore.Type
}

// RowSchema describes the output row of a bound plan node.
type RowSchema struct {
	Cols []OutCol
}

// Arity returns the number of output columns.
func (s *RowSchema) Arity() int { return len(s.Cols) }

// Resolve returns the position of ref in the schema. Unqualified
// references must match exactly one column.
func (s *RowSchema) Resolve(ref ColRef) (int, error) {
	found := -1
	for i, c := range s.Cols {
		if c.Ref.Col != ref.Col {
			continue
		}
		if ref.Rel != "" && c.Ref.Rel != ref.Rel {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("ra: ambiguous column reference %s", ref)
		}
		found = i
	}
	if found < 0 {
		return 0, fmt.Errorf("ra: unknown column %s", ref)
	}
	return found, nil
}
