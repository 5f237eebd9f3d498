// Package world bridges the MCMC sampler and the relational store: the
// database always holds a single possible world (Section 3 of the paper),
// and as inference mutates hidden fields the change log records the
// removed and added tuples — the paper's auxiliary Δ⁻ ("deleted") and Δ⁺
// ("added") tables — which the materialized-view query evaluator consumes.
package world

import (
	"fmt"

	"factordb/internal/ivm"
	"factordb/internal/ra"
	"factordb/internal/relstore"
)

// FieldRef identifies one uncertain field of the database: a (relation,
// row, column) coordinate whose value is a hidden random variable.
type FieldRef struct {
	Rel string
	Row relstore.RowID
	Col int
}

// ChangeLog applies field updates and row-level DML to the store and
// accumulates the net signed tuple delta since the last Drain.
//
// The pending delta is kept by row identity, not by tuple value: per
// relation, one entry for every row touched since the last Drain, holding
// the tuple the row had before its first change and the tuple it has now.
// A row flipped A→B→A, or inserted and deleted again, within one batch
// therefore nets to nothing, and recording a change costs a map probe on
// the RowID instead of encoding two tuples.
type ChangeLog struct {
	db    *relstore.DB
	rels  map[string]*relLog
	delta ivm.BaseDelta // what the last Drain handed out; containers reused

	updates int64 // total field updates applied through the log
	epoch   int64 // number of Drains so far
}

// relLog is the pending delta of one relation. The relation handle is
// resolved once, at first use; relations are never dropped from a world.
type relLog struct {
	rel  *relstore.Relation
	idx  map[relstore.RowID]int32 // row -> position in rows
	rows []rowChange
}

// rowChange is one touched row: old is its tuple before the first change
// of the batch (nil for a row inserted in the batch), now its latest
// tuple (nil once deleted). Both are rows of the relation, which replaces
// rows on update and never mutates them, so they stay stable without
// defensive copies.
type rowChange struct {
	old, now relstore.Tuple
}

// record notes that row id went from old to now.
func (rl *relLog) record(id relstore.RowID, old, now relstore.Tuple) {
	if i, ok := rl.idx[id]; ok {
		rl.rows[i].now = now
		return
	}
	rl.idx[id] = int32(len(rl.rows))
	rl.rows = append(rl.rows, rowChange{old: old, now: now})
}

// net calls fn for every signed row of the pending delta, skipping rows
// whose latest tuple is the one they started the batch with.
func (rl *relLog) net(fn func(t relstore.Tuple, n int64)) {
	for i := range rl.rows {
		c := &rl.rows[i]
		if c.old != nil && c.now != nil && c.old.Identical(c.now) {
			continue
		}
		if c.old != nil {
			fn(c.old, -1)
		}
		if c.now != nil {
			fn(c.now, 1)
		}
	}
}

// NewChangeLog wraps a database.
func NewChangeLog(db *relstore.DB) *ChangeLog {
	return &ChangeLog{db: db, rels: make(map[string]*relLog), delta: ivm.NewBaseDelta()}
}

// DB returns the underlying store.
func (l *ChangeLog) DB() *relstore.DB { return l.db }

// relation returns the pending-delta slot of the named relation.
func (l *ChangeLog) relation(name string) (*relLog, error) {
	if rl, ok := l.rels[name]; ok {
		return rl, nil
	}
	rel, err := l.db.Relation(name)
	if err != nil {
		return nil, err
	}
	rl := &relLog{rel: rel, idx: make(map[relstore.RowID]int32)}
	l.rels[name] = rl
	return rl, nil
}

// Field is one hidden column of one relation with everything about it
// resolved, for writers that flip the same column of many rows: the
// sampler's write-through binds one at start-up and pays no name lookup
// per flip.
type Field struct {
	l   *ChangeLog
	rl  *relLog
	col int
}

// Field resolves column col of the named relation.
func (l *ChangeLog) Field(rel string, col int) (Field, error) {
	rl, err := l.relation(rel)
	if err != nil {
		return Field{}, err
	}
	if col < 0 || col >= rl.rel.Schema().Arity() {
		return Field{}, fmt.Errorf("world: column %d out of range in %q", col, rel)
	}
	return Field{l: l, rl: rl, col: col}, nil
}

// Set writes v into the field of the given row, recording the old tuple
// in Δ⁻ and the new tuple in Δ⁺. Writing the current value is a no-op; a
// row that no longer exists reports relstore.ErrNotFound.
func (f Field) Set(row relstore.RowID, v relstore.Value) error {
	cur, ok := f.rl.rel.Get(row)
	if !ok {
		return fmt.Errorf("world: relation %q row %d: %w", f.rl.rel.Schema().Name, row, relstore.ErrNotFound)
	}
	if cur[f.col].Equal(v) {
		return nil
	}
	if _, err := f.rl.rel.UpdateCol(row, f.col, v); err != nil {
		return err
	}
	now, _ := f.rl.rel.Get(row)
	f.rl.record(row, cur, now)
	f.l.updates++
	return nil
}

// SetField is Field followed by Set, for one-off writes.
func (l *ChangeLog) SetField(ref FieldRef, v relstore.Value) error {
	f, err := l.Field(ref.Rel, ref.Col)
	if err != nil {
		return err
	}
	return f.Set(ref.Row, v)
}

// GetField reads the referenced field.
func (l *ChangeLog) GetField(ref FieldRef) (relstore.Value, error) {
	rel, err := l.db.Relation(ref.Rel)
	if err != nil {
		return relstore.Value{}, err
	}
	t, ok := rel.Get(ref.Row)
	if !ok {
		return relstore.Value{}, fmt.Errorf("world: relation %q row %d: %w", ref.Rel, ref.Row, relstore.ErrNotFound)
	}
	if ref.Col < 0 || ref.Col >= len(t) {
		return relstore.Value{}, fmt.Errorf("world: column %d out of range in %q", ref.Col, ref.Rel)
	}
	return t[ref.Col], nil
}

// Pending reports whether any net changes have accumulated.
func (l *ChangeLog) Pending() bool {
	pending := false
	for _, rl := range l.rels {
		rl.net(func(relstore.Tuple, int64) { pending = true })
	}
	return pending
}

// Updates returns the total number of effective field updates applied.
func (l *ChangeLog) Updates() int64 { return l.updates }

// Drain returns the accumulated net signed delta and resets the log,
// closing the current epoch. This is the "cleaning and refreshing of the
// tables between deterministic query executions" step of Section 4.2.
//
// The returned delta is valid until the next Drain: its tuples are stable,
// but the map and the row slices are the log's own and are refilled then.
// Fold it into the views (or drop it) before draining again.
func (l *ChangeLog) Drain() ivm.BaseDelta {
	for name, rl := range l.rels {
		out := l.delta[name][:0]
		if cap(out) > 2*keepRows {
			out = nil
		}
		rl.net(func(t relstore.Tuple, n int64) {
			out = append(out, ra.BagRow{Tuple: t, N: n})
		})
		l.delta[name] = out
		if cap(rl.rows) > keepRows {
			rl.rows, rl.idx = nil, make(map[relstore.RowID]int32)
			continue
		}
		clear(rl.idx)
		clear(rl.rows) // let go of the tuples
		rl.rows = rl.rows[:0]
	}
	l.epoch++
	return l.delta
}

// keepRows bounds the pending-delta buffers Drain keeps for reuse. A
// sampling batch touches at most a few rows per walk-step and stays far
// below it; a burst — a burn-in of 10⁵ steps drained once, a bulk DML
// statement — grows the buffers past it, and those are dropped rather
// than pinned at their high-water mark for the life of the chain.
const keepRows = 4096

// Epoch returns the number of completed epochs: every Drain closes one.
// Between two Drains the world passes through many intermediate states;
// an epoch boundary is the only place where the store, the delta tables
// and any maintained views are simultaneously consistent, which is what
// makes it the unit of snapshot publication (see Cell).
func (l *ChangeLog) Epoch() int64 { return l.epoch }

// DeltaTables renders the pending delta for one relation as the paper's
// two auxiliary tables: deleted (Δ⁻) holds the removed tuples, added (Δ⁺)
// the new ones. Intended for display and debugging; Apply consumers use
// the signed form directly.
func (l *ChangeLog) DeltaTables(rel string) (deleted, added []relstore.Tuple) {
	rl, ok := l.rels[rel]
	if !ok {
		return nil, nil
	}
	rl.net(func(t relstore.Tuple, n int64) {
		if n < 0 {
			deleted = append(deleted, t)
		} else {
			added = append(added, t)
		}
	})
	return deleted, added
}
