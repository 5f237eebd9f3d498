package world

import "factordb/internal/relstore"

// Pending reports whether any net changes have accumulated.
func (l *ChangeLog) Pending() bool {
	pending := false
	for _, rl := range l.rels {
		rl.net(nil, func(relstore.Tuple, int64) { pending = true })
	}
	return pending
}

// DeltaTables renders the pending delta for one relation as the paper's
// two auxiliary tables: deleted (Δ⁻) holds the removed tuples, added (Δ⁺)
// the new ones.
func (l *ChangeLog) DeltaTables(rel string) (deleted, added []relstore.Tuple) {
	rl, ok := l.rels[rel]
	if !ok {
		return nil, nil
	}
	rl.net(nil, func(t relstore.Tuple, n int64) {
		if n < 0 {
			deleted = append(deleted, t.Clone())
		} else {
			added = append(added, t.Clone())
		}
	})
	return deleted, added
}
