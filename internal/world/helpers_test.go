package world

import (
	"testing"

	"factordb/internal/ivm"
	"factordb/internal/ra"
	"factordb/internal/relstore"
)

// mustField binds the change log's writer for one hidden column.
func mustField(t *testing.T, l *ChangeLog, rel string, col int) Field {
	t.Helper()
	f, err := l.Field(rel, col)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// Pending reports whether any net changes have accumulated.
func (l *ChangeLog) Pending() bool {
	for _, rl := range l.rels {
		if rows, _ := rl.net(nil, nil); len(rows) > 0 {
			return true
		}
	}
	return false
}

// DeltaTables renders the pending delta for one relation as the paper's
// two auxiliary tables: deleted (Δ⁻) holds the removed tuples, added (Δ⁺)
// the new ones.
func (l *ChangeLog) DeltaTables(rel string) (deleted, added []relstore.Tuple) {
	rl, ok := l.rels[rel]
	if !ok {
		return nil, nil
	}
	rows, _ := rl.net(nil, nil)
	rows.Each(rl.rel, nil, func(t relstore.Tuple, n int64) {
		if n < 0 {
			deleted = append(deleted, t.Clone())
		} else {
			added = append(added, t.Clone())
		}
	})
	return deleted, added
}

// signedRows reads relation rel's share of d, a delta this log drained,
// through the one accessor, ivm.Rows.Each, cloning every tuple.
func (l *ChangeLog) signedRows(d ivm.BaseDelta, rel string) []ra.BagRow {
	var out []ra.BagRow
	if rl, ok := l.rels[rel]; ok {
		d[rel].Each(rl.rel, nil, func(t relstore.Tuple, n int64) {
			out = append(out, ra.BagRow{Tuple: t.Clone(), N: n})
		})
	}
	return out
}
