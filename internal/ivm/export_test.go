package ivm

// Remounts returns how many times the join under the root of v, a
// projection of a join as Query 4 binds, remounted since v mounted.
func Remounts(v *View) int { return v.root.(*stage).child.(*joinOp).remounts }
