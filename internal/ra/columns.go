package ra

// OutputColumns returns the output column names of a logical plan without
// binding it against a catalog. It resolves every root the sqlparse
// planner can produce (Project or GroupAgg, possibly wrapped in Select,
// Distinct or OrderLimit); for roots whose schema depends on the catalog
// — a bare Scan — it returns nil and the caller must Bind to learn the
// names.
func OutputColumns(p Plan) []string {
	switch n := p.(type) {
	case *Distinct:
		return OutputColumns(n.Child)
	case *OrderLimit:
		return OutputColumns(n.Child)
	case *Select:
		return OutputColumns(n.Child)
	case *Project:
		out := make([]string, len(n.Cols))
		for i, c := range n.Cols {
			out[i] = c.Col
		}
		return out
	case *GroupAgg:
		out := make([]string, 0, len(n.GroupBy)+len(n.Aggs))
		for _, g := range n.GroupBy {
			out = append(out, g.Col)
		}
		for _, a := range n.Aggs {
			out = append(out, a.As)
		}
		return out
	}
	return nil
}
