package ra

import (
	"fmt"
	"strings"
)

// Render pretty-prints a plan as an indented tree, one node per line,
// children indented two spaces below their parent. It reuses each node's
// single-line String() header but expands the operator tree vertically,
// which is what EXPLAIN shows. Unknown node kinds fall back to their
// full single-line String().
func Render(p Plan) []string {
	var lines []string
	renderInto(p, 0, &lines)
	return lines
}

func renderInto(p Plan, depth int, lines *[]string) {
	ind := strings.Repeat("  ", depth)
	emit := func(format string, args ...any) {
		*lines = append(*lines, ind+fmt.Sprintf(format, args...))
	}
	switch n := p.(type) {
	case *Scan:
		emit("%s", n.String())
	case *Select:
		emit("Select[%s]", n.Pred)
		renderInto(n.Child, depth+1, lines)
	case *Project:
		cols := make([]string, len(n.Cols))
		for i, c := range n.Cols {
			cols[i] = c.String()
		}
		emit("Project[%s]", strings.Join(cols, ", "))
		renderInto(n.Child, depth+1, lines)
	case *Join:
		on := make([]string, len(n.On))
		for i, c := range n.On {
			on[i] = c.Left.String() + "=" + c.Right.String()
		}
		h := fmt.Sprintf("Join[%s]", strings.Join(on, ", "))
		if n.Filter != nil {
			h += fmt.Sprintf("{%s}", n.Filter)
		}
		emit("%s", h)
		renderInto(n.Left, depth+1, lines)
		renderInto(n.Right, depth+1, lines)
	case *GroupAgg:
		group := make([]string, len(n.GroupBy))
		for i, c := range n.GroupBy {
			group[i] = c.String()
		}
		aggs := make([]string, len(n.Aggs))
		for i, a := range n.Aggs {
			if a.Fn == FnCountIf {
				aggs[i] = fmt.Sprintf("%s(%s) AS %s", a.Fn, a.Pred, a.As)
			} else {
				aggs[i] = fmt.Sprintf("%s(%s) AS %s", a.Fn, a.Arg, a.As)
			}
		}
		emit("GroupAgg[%s; %s]", strings.Join(group, ", "), strings.Join(aggs, ", "))
		renderInto(n.Child, depth+1, lines)
	case *Distinct:
		emit("Distinct")
		renderInto(n.Child, depth+1, lines)
	case *OrderLimit:
		keys := make([]string, len(n.Keys))
		for i, k := range n.Keys {
			keys[i] = k.String()
		}
		emit("OrderLimit[%s; limit %d]", strings.Join(keys, ", "), n.Limit)
		renderInto(n.Child, depth+1, lines)
	default:
		emit("%s", p)
	}
}
