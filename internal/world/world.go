// Package world bridges the MCMC sampler and the relational store: the
// database always holds a single possible world (Section 3 of the paper),
// and as inference mutates hidden fields the change log records the
// removed and added tuples — the paper's auxiliary Δ⁻ ("deleted") and Δ⁺
// ("added") tables — which the materialized-view query evaluator consumes.
package world

import (
	"fmt"
	"slices"

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
// The store keeps no row objects to point at — a flip is a store into one
// column vector — so the pending delta is kept by row identity: per
// relation, one entry for every row touched since the last Drain, holding
// a copy of the tuple the row had before its first change. What the row
// holds now is read back from the relation when the delta is netted. A
// row flipped A→B→A, or inserted and deleted again, within one batch
// therefore nets to nothing, and recording a change costs a map probe on
// the RowID and, the first time only, one row copied into a reused arena.
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
	rel   *relstore.Relation
	arity int
	idx   map[relstore.RowID]int32 // row -> position in rows
	rows  []rowChange
	// vals is the arena of this batch: the first-old tuples, arity values
	// each, in the order their rows were first touched; Drain appends the
	// rows' current tuples behind them and hands the whole arena out with
	// the delta. drained is the arena the previous Drain handed out,
	// zeroed and taken back into use at the next one.
	vals, drained []relstore.Value
}

// rowChange is one touched row. old is the offset in relLog.vals of the
// tuple it had before the first change of the batch, or -1 for a row
// inserted in the batch.
type rowChange struct {
	id  relstore.RowID
	old int32
}

// touch notes that existing row id is about to change, keeping its
// current tuple if this is the batch's first change to it.
func (rl *relLog) touch(id relstore.RowID) error {
	if _, ok := rl.idx[id]; ok {
		return nil
	}
	off := len(rl.vals)
	vals, ok := rl.rel.AppendRow(rl.vals, id)
	if !ok {
		return fmt.Errorf("world: relation %q row %d: %w", rl.rel.Schema().Name, id, relstore.ErrNotFound)
	}
	rl.vals = vals
	rl.add(id, int32(off))
	return nil
}

func (rl *relLog) add(id relstore.RowID, old int32) {
	rl.idx[id] = int32(len(rl.rows))
	rl.rows = append(rl.rows, rowChange{id: id, old: old})
}

// net calls fn for every signed row of the pending delta: −1 with the
// tuple a touched row started the batch with, +1 with the tuple it holds
// now, skipping rows that are back to the tuple they started with. The
// current tuples are appended to buf, which is returned; a tuple passed
// to fn is valid for as long as rl.vals and buf are.
func (rl *relLog) net(buf []relstore.Value, fn func(t relstore.Tuple, n int64)) []relstore.Value {
	for _, c := range rl.rows {
		var old, now relstore.Tuple
		if c.old >= 0 {
			end := int(c.old) + rl.arity
			old = rl.vals[c.old:end:end]
		}
		mark := len(buf)
		grown, live := rl.rel.AppendRow(buf, c.id)
		if live {
			buf, now = grown, grown[mark:len(grown):len(grown)]
			if c.old >= 0 && old.Identical(now) {
				buf = buf[:mark]
				continue
			}
		}
		if c.old >= 0 {
			fn(old, -1)
		}
		if live {
			fn(now, 1)
		}
	}
	return buf
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
	rl := &relLog{rel: rel, arity: rel.Schema().Arity(), idx: make(map[relstore.RowID]int32)}
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

// Field resolves column col of the named relation, which its schema
// must declare hidden (relstore.DB.DeclareHidden): every other layer
// reads the declaration, so a model may sample no column but a declared
// one.
func (l *ChangeLog) Field(rel string, col int) (Field, error) {
	rl, err := l.relation(rel)
	if err != nil {
		return Field{}, err
	}
	sch := rl.rel.Schema()
	if col < 0 || col >= sch.Arity() {
		return Field{}, fmt.Errorf("world: column %d out of range in %q", col, rel)
	}
	if !sch.Hidden(col) {
		return Field{}, fmt.Errorf("world: column %s.%s is not declared hidden", rel, sch.Cols[col].Name)
	}
	return Field{l: l, rl: rl, col: col}, nil
}

// Set writes v into the field of the given row: a store into the
// column's vector, with the row's previous tuple kept for Δ⁻ if this is
// its first change of the batch. Writing the current value is a no-op; a
// row that no longer exists reports relstore.ErrNotFound.
func (f Field) Set(row relstore.RowID, v relstore.Value) error {
	rel := f.rl.rel
	cur, ok := rel.GetCol(row, f.col)
	if !ok {
		return fmt.Errorf("world: relation %q row %d: %w", rel.Schema().Name, row, relstore.ErrNotFound)
	}
	if cur.Equal(v) {
		return nil
	}
	if err := f.rl.touch(row); err != nil {
		return err
	}
	if err := rel.SetCol(row, f.col, v); err != nil {
		return err
	}
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
	if ref.Col < 0 || ref.Col >= rel.Schema().Arity() {
		return relstore.Value{}, fmt.Errorf("world: column %d out of range in %q", ref.Col, ref.Rel)
	}
	v, ok := rel.GetCol(ref.Row, ref.Col)
	if !ok {
		return relstore.Value{}, fmt.Errorf("world: relation %q row %d: %w", ref.Rel, ref.Row, relstore.ErrNotFound)
	}
	return v, nil
}

// Pending reports whether any net changes have accumulated.
func (l *ChangeLog) Pending() bool {
	pending := false
	for _, rl := range l.rels {
		rl.net(nil, func(relstore.Tuple, int64) { pending = true })
	}
	return pending
}

// Updates returns the total number of effective field updates applied.
func (l *ChangeLog) Updates() int64 { return l.updates }

// Drain returns the accumulated net signed delta and resets the log,
// closing the current epoch. This is the "cleaning and refreshing of the
// tables between deterministic query executions" step of Section 4.2.
//
// The returned delta is valid until the next Drain and no longer: the
// map, the row slices and the tuples themselves live in buffers of the
// log, which the next Drain zeroes and refills. Fold it into the views
// (or drop it) before draining again; keep a tuple only as a Clone.
func (l *ChangeLog) Drain() ivm.BaseDelta {
	for name, rl := range l.rels {
		out := l.delta[name][:0]
		if cap(out) > 2*keepRows {
			out = nil
		}
		rl.vals = slices.Grow(rl.vals, len(rl.rows)*rl.arity)
		rl.vals = rl.net(rl.vals, func(t relstore.Tuple, n int64) {
			out = append(out, ra.BagRow{Tuple: t, N: n})
		})
		l.delta[name] = out
		// The arena just filled goes out with the delta; the one that went
		// out last time is zeroed, so nothing reads stale rows from it,
		// and takes the next batch.
		clear(rl.drained)
		rl.vals, rl.drained = rl.drained[:0], rl.vals
		if cap(rl.vals) > 2*keepRows*rl.arity {
			rl.vals = nil
		}
		if cap(rl.rows) > keepRows {
			rl.rows, rl.idx = nil, make(map[relstore.RowID]int32)
			continue
		}
		clear(rl.idx)
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
// makes it the unit at which a chain hands off an estimate.
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
	rl.net(nil, func(t relstore.Tuple, n int64) {
		if n < 0 {
			deleted = append(deleted, t.Clone())
		} else {
			added = append(added, t.Clone())
		}
	})
	return deleted, added
}
