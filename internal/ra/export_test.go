package ra

import "factordb/internal/relstore"

// BindUnpruned binds a plan node for node, without Bind's column-pruning
// pass, and mounts it on db: the reference the pruning differential tests
// hold Bind against.
func BindUnpruned(db *relstore.DB, p Plan) (*Bound, error) {
	b, err := bindPlan(db, p)
	if err != nil {
		return nil, err
	}
	return b.On(db)
}
