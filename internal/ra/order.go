package ra

import (
	"fmt"

	"factordb/internal/relstore"
)

// SortKey is one ORDER BY key of an OrderLimit node.
type SortKey struct {
	Col  ColRef
	Desc bool
}

func (k SortKey) String() string {
	if k.Desc {
		return k.Col.String() + " DESC"
	}
	return k.Col.String() + " ASC"
}

// OrderLimit is the per-world top-k operator: within every sampled world
// it orders the child's rows by the sort keys and keeps the first Limit
// rows (multiplicities count toward the limit, matching SQL's LIMIT over
// a bag). Under sampling this yields MystiQ-style ranked-query semantics:
// a tuple's marginal becomes the probability that it ranks in the top k
// of a possible world. Ties on the sort keys break by the tuple's
// injective key encoding, so evaluation is deterministic.
type OrderLimit struct {
	Child Plan
	Keys  []SortKey
	Limit int64 // must be positive
}

// NewOrderLimit builds a per-world top-k node.
func NewOrderLimit(child Plan, keys []SortKey, limit int64) *OrderLimit {
	return &OrderLimit{Child: child, Keys: keys, Limit: limit}
}

func (*OrderLimit) plan() {}

func (o *OrderLimit) String() string {
	s := "OrderLimit["
	for i, k := range o.Keys {
		if i > 0 {
			s += ", "
		}
		s += k.String()
	}
	return s + fmt.Sprintf("; %d](%s)", o.Limit, o.Child)
}

// ResultOrder is one result-level sort key over the final probabilistic
// answer: either the marginal-probability pseudo-column P or an output
// column of the plan, identified by position.
type ResultOrder struct {
	ByProb bool // sort by the estimated marginal (the P pseudo-column)
	Index  int  // output column index when ByProb is false
	Desc   bool
}

// ResultSpec describes how the final probabilistic answer — tuples
// annotated with their estimated marginals — must be ordered and
// truncated before being returned to the client. It is produced by the
// SQL planner for clauses that cannot be lowered into the per-world plan
// (ORDER BY P references the cross-world estimate, which no single world
// can compute) and consumed by every result-assembly path: the facade's
// local modes and the serving engine's merge-at-read step.
//
// The zero spec means the default presentation: descending marginal
// with deterministic tie-breaks, no truncation. SQL LIMIT counts are
// always positive, so Limit <= 0 is the no-truncation state.
type ResultSpec struct {
	Order []ResultOrder
	Limit int64 // <= 0 when the query has no result-level LIMIT
}

// IsDefault reports whether the spec requests no reordering or truncation.
func (s ResultSpec) IsDefault() bool { return len(s.Order) == 0 && s.Limit <= 0 }

// TopKByProb reports whether the spec ranks by descending marginal with a
// positive limit — the shape that allows a serving engine to stop
// refining tuples that can no longer enter the top k.
func (s ResultSpec) TopKByProb() bool {
	return s.Limit > 0 && len(s.Order) > 0 && s.Order[0].ByProb && s.Order[0].Desc
}

// CompareTuples compares a and b on the indexed fields with per-key
// direction flags, returning -1, 0, or +1. Callers supply equal-length
// idx and desc slices (a bound OrderLimit's SortIdx/SortDesc).
func CompareTuples(a, b relstore.Tuple, idx []int, desc []bool) int {
	for i, j := range idx {
		av, bv := a[j], b[j]
		switch {
		case av.Less(bv):
			if desc[i] {
				return 1
			}
			return -1
		case bv.Less(av):
			if desc[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

func bindOrderLimit(db *relstore.DB, n *OrderLimit) (*Bound, error) {
	child, err := bindPlan(db, n.Child)
	if err != nil {
		return nil, err
	}
	if n.Limit <= 0 {
		return nil, fmt.Errorf("ra: OrderLimit with non-positive limit %d", n.Limit)
	}
	if len(n.Keys) == 0 {
		return nil, fmt.Errorf("ra: OrderLimit with no sort keys")
	}
	b := &Bound{Kind: KOrderLimit, Schema: child.Schema, Source: n, Children: []*Bound{child}, Limit: n.Limit}
	for _, k := range n.Keys {
		j, err := child.Schema.Resolve(k.Col)
		if err != nil {
			return nil, fmt.Errorf("ra: ORDER BY %s: %w", k.Col, err)
		}
		b.SortIdx = append(b.SortIdx, j)
		b.SortDesc = append(b.SortDesc, k.Desc)
	}
	return b, nil
}
