// Package world bridges the MCMC sampler and the relational store: the
// database always holds a single possible world (Section 3 of the paper),
// and as inference mutates hidden fields the change log notes which rows
// changed — for a flip, only the value the flipped column had. Drain nets
// those notes into the removed and added tuples, the paper's auxiliary Δ⁻
// ("deleted") and Δ⁺ ("added") tables, which the materialized-view query
// evaluator consumes.
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
// relation, one record for every row touched since the last Drain, behind
// a map on the RowID. A sampler flip records the value the one column it
// writes had before the row's first change of the batch; a DML touch, or
// a flip of a second column, widens that record to the whole tuple the row
// started the batch with. What the row holds now is read back from the
// relation when the delta is netted. A row flipped A→B→A, or inserted and
// deleted again, within one batch therefore nets to nothing, and recording
// a flip costs a map probe on the RowID and, the first time only, one
// value.
type ChangeLog struct {
	db    *relstore.DB
	rels  map[string]*relLog
	delta ivm.BaseDelta // what the last Drain handed out; containers reused

	updates int64 // total field updates applied through the log
	epoch   int64 // number of Drains and Discards so far
}

// relLog is the pending delta of one relation. The relation handle is
// resolved once, at first use; relations are never dropped from a world.
type relLog struct {
	rel   *relstore.Relation
	arity int
	idx   map[relstore.RowID]int32 // row -> position in rows
	rows  []rowChange
	// olds holds the first-old tuples of the widened records, arity values
	// each, for this batch only.
	olds []relstore.Value
	// arena holds the tuples the last Drain handed out, (old, now) per
	// netted row; the next Drain zeroes and refills it.
	arena []relstore.Value
}

// rowChange is one touched row in one of three forms. A flip record
// (col ≥ 0) holds in old the value column col had before the row's first
// change of the batch, every other column being unchanged. A widened
// record (col < 0, off ≥ 0) keeps the row's first-old tuple at offset off
// of relLog.olds. A row inserted in the batch has col < 0 and off < 0.
type rowChange struct {
	id  relstore.RowID
	col int32
	off int32
	old relstore.Value
}

// touch notes that existing row id is about to change: in column col
// alone, from cur, or, for col < 0, in more columns or as a whole. The
// row's first touch of the batch records cur, or the whole current tuple
// for col < 0. A later touch by another column, or by a DML statement,
// widens a flip record: its first tuple is the current row with the
// flipped column put back.
func (rl *relLog) touch(id relstore.RowID, col int, cur relstore.Value) error {
	if i, ok := rl.idx[id]; ok {
		if c := &rl.rows[i]; c.col >= 0 && int(c.col) != col {
			off := len(rl.olds)
			rl.olds, _ = rl.rel.AppendRow(rl.olds, id)
			rl.olds[off+int(c.col)] = c.old
			*c = rowChange{id: id, col: -1, off: int32(off)}
		}
		return nil
	}
	if col >= 0 {
		rl.add(rowChange{id: id, col: int32(col), off: -1, old: cur})
		return nil
	}
	off := len(rl.olds)
	olds, ok := rl.rel.AppendRow(rl.olds, id)
	if !ok {
		return fmt.Errorf("world: relation %q row %d: %w", rl.rel.Schema().Name, id, relstore.ErrNotFound)
	}
	rl.olds = olds
	rl.add(rowChange{id: id, col: -1, off: int32(off)})
	return nil
}

func (rl *relLog) add(c rowChange) {
	rl.idx[c.id] = int32(len(rl.rows))
	rl.rows = append(rl.rows, c)
}

// moved reports whether flip record c's column is no longer key-identical
// to the value it had first.
func (rl *relLog) moved(c rowChange) bool {
	cur, _ := rl.rel.GetCol(c.id, int(c.col))
	return !cur.Identical(c.old)
}

// size bounds the values net gathers: the netted flip records' and the
// widened records' old and current tuples, an inserted row's current one.
func (rl *relLog) size() int {
	n := 0
	for _, c := range rl.rows {
		switch {
		case c.col >= 0:
			if rl.moved(c) {
				n += 2 * rl.arity
			}
		case c.off >= 0:
			n += 2 * rl.arity
		default:
			n += rl.arity
		}
	}
	return n
}

// net calls fn for every signed row of the pending delta, in first-touch
// order: −1 with the tuple a touched row started the batch with, then +1
// with the tuple it holds now, skipping rows that are back to the tuple
// they started with. A flip record back at its value is skipped without
// reading the row. Both tuples are appended to buf, which is returned; a
// tuple passed to fn is valid for as long as buf is.
func (rl *relLog) net(buf []relstore.Value, fn func(t relstore.Tuple, n int64)) []relstore.Value {
	a := rl.arity
	for _, c := range rl.rows {
		mark := len(buf)
		if c.col >= 0 {
			if !rl.moved(c) {
				continue
			}
			buf, _ = rl.rel.AppendRow(buf, c.id)
			buf = append(buf, buf[mark:mark+a]...)
			buf[mark+int(c.col)] = c.old
			fn(buf[mark:mark+a:mark+a], -1)
			fn(buf[mark+a:mark+2*a:mark+2*a], 1)
			continue
		}
		grown, live := rl.rel.AppendRow(buf, c.id)
		if c.off < 0 {
			if live {
				buf = grown
				fn(buf[mark:mark+a:mark+a], 1)
			}
			continue
		}
		old := relstore.Tuple(rl.olds[c.off : int(c.off)+a])
		if live && old.Identical(grown[mark:]) {
			continue
		}
		// The old tuple goes behind the current one in buf, so both
		// outlive the batch's olds.
		buf = append(grown, old...)
		fn(buf[len(buf)-a:len(buf):len(buf)], -1)
		if live {
			fn(buf[mark:mark+a:mark+a], 1)
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
// column's vector, with the field's previous value kept for Δ⁻ if this is
// the row's first change of the batch. Writing the current value is a
// no-op; a row that no longer exists reports relstore.ErrNotFound.
func (f Field) Set(row relstore.RowID, v relstore.Value) error {
	rel := f.rl.rel
	cur, ok := rel.GetCol(row, f.col)
	if !ok {
		return fmt.Errorf("world: relation %q row %d: %w", rel.Schema().Name, row, relstore.ErrNotFound)
	}
	if cur.Equal(v) {
		return nil
	}
	if err := f.rl.touch(row, f.col, cur); err != nil {
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

// Updates returns the total number of effective field updates applied.
func (l *ChangeLog) Updates() int64 { return l.updates }

// Drain returns the accumulated net signed delta and resets the log,
// closing the current epoch. This is the "cleaning and refreshing of the
// tables between deterministic query executions" step of Section 4.2.
// Per relation it nets first — a flip record back at its value is
// dropped unread — and then gathers the old and current tuple of every
// row left into one arena sized to them, emitting, in first-touch order,
// (old, −1) before (now, +1).
//
// The returned delta is valid until the next Drain and no longer: the
// map, the row slices and the tuples themselves live in buffers of the
// log, which the next Drain zeroes and refills. Fold it into the views
// before draining again, or Discard instead of draining; keep a tuple
// only as a Clone.
func (l *ChangeLog) Drain() ivm.BaseDelta {
	for name, rl := range l.rels {
		vals := rl.size()
		rl.arena = slices.Grow(keep(rl.arena, vals, 2*keepFloor*rl.arity), vals)
		out := slices.Grow(keep(l.delta[name], vals/rl.arity, 2*keepFloor), vals/rl.arity)
		rl.arena = rl.net(rl.arena, func(t relstore.Tuple, n int64) {
			out = append(out, ra.BagRow{Tuple: t, N: n})
		})
		l.delta[name] = out
		rl.reset()
	}
	l.epoch++
	return l.delta
}

// Discard closes the current epoch as Drain does but drops the pending
// delta without netting it, for a log whose changes nobody folds: a naive
// evaluator, a burn-in before any view is mounted, a shadow world. A
// delta the last Drain returned stays valid.
func (l *ChangeLog) Discard() {
	for _, rl := range l.rels {
		rl.reset()
	}
	l.epoch++
}

// reset empties the batch's records, keeping the row list and its map
// for the next batch unless a burst grew them far past what this batch
// used.
func (rl *relLog) reset() {
	if cap(rl.rows) > 4*max(len(rl.rows), keepFloor) {
		rl.rows, rl.idx = nil, make(map[relstore.RowID]int32)
	} else {
		clear(rl.idx)
		clear(rl.rows)
		rl.rows = rl.rows[:0]
	}
	rl.olds = keep(rl.olds, len(rl.olds), keepFloor*rl.arity)
}

// keep returns buf zeroed, so nothing reads a stale row from it, and
// emptied for reuse — or nil once its capacity passes four times the
// larger of used, what the batch needs of it, and floor. Retention thus
// follows use: a steady batch reuses its buffers and allocates nothing,
// and a burst (a long burn-in, a bulk DML statement) is released at the
// next ordinary batch rather than pinned for the life of the chain.
func keep[T any](buf []T, used, floor int) []T {
	if cap(buf) > 4*max(used, floor) {
		return nil
	}
	clear(buf)
	return buf[:0]
}

// keepFloor is the row count below which a batch's buffers are kept
// whatever the batch used: a sampling batch touches a few dozen rows and
// varies from one batch to the next.
const keepFloor = 64

// Epoch returns the number of completed epochs: every Drain and every
// Discard closes one. Between two of them the world passes through many intermediate states;
// an epoch boundary is the only place where the store, the delta tables
// and any maintained views are simultaneously consistent, which is what
// makes it the unit at which a chain hands off an estimate.
func (l *ChangeLog) Epoch() int64 { return l.epoch }
