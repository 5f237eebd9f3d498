package ivm

// Remounts returns how many times the join under the root of v, a
// projection of a join as Query 4 binds, remounted since v mounted.
func Remounts(v *View) int { return v.root.(*stage).child.(*joinOp).remounts }

// Gathers returns how many flip records each leaf of v has gathered,
// leaves in tree order, left input first.
func Gathers(v *View) []int {
	var out []int
	var walk func(o op)
	walk = func(o op) {
		switch o := o.(type) {
		case *stage:
			if o.child == nil {
				out = append(out, o.gathers)
				return
			}
			walk(o.child)
		case *joinOp:
			walk(o.left)
			walk(o.right)
		case *groupAggOp:
			walk(o.child)
		case *distinctOp:
			walk(o.child)
		case *orderLimitOp:
			walk(o.child)
		}
	}
	walk(v.root)
	return out
}
