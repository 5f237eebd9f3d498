package relstore

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
)

// ErrNotFound marks operations addressing a RowID that is not (or no
// longer) present in the relation. Callers that hold long-lived row
// references across DML — the MCMC write-through path — match it with
// errors.Is to distinguish "row was deleted underneath me" from a
// programming error.
var ErrNotFound = errors.New("row not found")

// RowID identifies a row within a relation. IDs are stable for the life of
// the row and are never reused, so external components (such as the MCMC
// world bridge) can hold long-lived references to uncertain fields.
type RowID int64

// Relation is a bag of tuples conforming to a schema, stored by column:
// one typed vector per attribute, indexed by RowID, plus a bitmap saying
// which ids hold live rows. Insert appends, Delete leaves a tombstone, so
// ids are never reused and a scan is in ascending RowID order.
//
// Clone shares every vector with the clone. A vector is marked shared
// the moment a second world can see it and from then on is never written
// again: whichever holder writes to it first copies it and continues on
// its own copy (see own). A world that only ever changes one column
// therefore owns that one vector and reads the rest from the common
// copy. Tuples are materialized on the way out — Get and AppendRow build
// a row from the vectors, scans refill one scratch tuple per row.
//
// A Relation is safe for any number of concurrent readers, Clone
// included; a writer needs it exclusively.
type Relation struct {
	schema *Schema
	cols   []*column // one vector per attribute, each n slots long
	rows   *rowSet
	n      int // ids handed out: the next Insert assigns RowID(n)
	live   int // rows not deleted
}

// column is one attribute of every slot. TInt and TBool payloads and the
// bits of a TFloat live in nums, strings in strs. A FLOAT column accepts
// integers, and they keep their kind (Int(1) and Float(1) key
// differently): ints marks the slots whose nums entry is an integer
// payload rather than IEEE 754 bits.
type column struct {
	shared atomic.Bool // visible to another world: copy before writing
	typ    Type
	nums   []int64
	strs   []string
	ints   bitmap
}

// rowSet says which slots hold live rows. It is shared and copied on
// write like a column.
type rowSet struct {
	shared atomic.Bool
	alive  bitmap
}

type bitmap []uint64

func (b bitmap) get(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }
func (b bitmap) set(i int)      { b[i>>6] |= 1 << (i & 63) }
func (b bitmap) unset(i int)    { b[i>>6] &^= 1 << (i & 63) }

// cover returns b extended with zero words until it holds bit i.
func (b bitmap) cover(i int) bitmap {
	for len(b) <= i>>6 {
		b = append(b, 0)
	}
	return b
}

// NewRelation creates an empty relation with the given schema.
func NewRelation(schema *Schema) *Relation {
	r := &Relation{schema: schema, cols: make([]*column, len(schema.Cols)), rows: &rowSet{}}
	for i, c := range schema.Cols {
		r.cols[i] = &column{typ: c.Type}
	}
	return r
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of rows.
func (r *Relation) Len() int { return r.live }

// value materializes slot s.
func (c *column) value(s int) Value {
	switch c.typ {
	case TString:
		return Value{kind: TString, s: c.strs[s]}
	case TFloat:
		if c.ints.get(s) {
			return Value{kind: TInt, i: c.nums[s]}
		}
		return Value{kind: TFloat, f: math.Float64frombits(uint64(c.nums[s]))}
	}
	return Value{kind: c.typ, i: c.nums[s]}
}

// store writes v, already validated against the column type, into slot s.
func (c *column) store(s int, v Value) {
	switch {
	case c.typ == TString:
		c.strs[s] = v.s
	case c.typ != TFloat:
		c.nums[s] = v.i
	case v.kind == TInt:
		c.nums[s] = v.i
		c.ints.set(s)
	default:
		c.nums[s] = int64(math.Float64bits(v.f))
		c.ints.unset(s)
	}
}

// equals reports whether slot s compares Equal to v, testing strings and
// integers on the vector without materializing a Value.
func (c *column) equals(s int, v Value) bool {
	switch {
	case c.typ == TString:
		return v.kind == TString && c.strs[s] == v.s
	case c.typ == v.kind && c.typ != TFloat:
		return c.nums[s] == v.i
	}
	return c.value(s).Equal(v)
}

// grown returns a copy of x with room for extra more elements.
func grown[T any](x []T, extra int) []T {
	return append(make([]T, 0, len(x)+extra), x...)
}

// copyOf returns an unshared copy of the column with spare capacity for
// extra more slots.
func (c *column) copyOf(extra int) *column {
	n := &column{typ: c.typ}
	switch c.typ {
	case TString:
		n.strs = grown(c.strs, extra)
	case TFloat:
		n.ints = grown(c.ints, extra/64+1)
		fallthrough
	default:
		n.nums = grown(c.nums, extra)
	}
	return n
}

// own returns column ci ready to be written: the vector itself while no
// other world can see it, otherwise a private copy that replaces it in
// this relation. extra is the number of slots the caller is about to
// append (0 for a store into an existing slot).
func (r *Relation) own(ci, extra int) *column {
	c := r.cols[ci]
	if c.shared.Load() {
		c = c.copyOf(extra)
		r.cols[ci] = c
	}
	return c
}

// set stores v, already validated, in slot s of column ci. Storing the
// value the slot already holds (same kind, same payload bits) writes
// nothing, so it never un-shares the vector.
func (r *Relation) set(s, ci int, v Value) {
	if !r.cols[ci].value(s).identical(v) {
		r.own(ci, 0).store(s, v)
	}
}

// ownRows is own for the row set.
func (r *Relation) ownRows(extra int) *rowSet {
	if old := r.rows; old.shared.Load() {
		r.rows = &rowSet{alive: grown(old.alive, extra/64+1)}
	}
	return r.rows
}

// slot returns the position of row id in the vectors, or -1 when the row
// does not exist.
func (r *Relation) slot(id RowID) int {
	if id < 0 || id >= RowID(r.n) || !r.rows.alive.get(int(id)) {
		return -1
	}
	return int(id)
}

func (r *Relation) notFound(op string, id RowID) error {
	return fmt.Errorf("relstore: relation %q: %s of row %d: %w", r.schema.Name, op, id, ErrNotFound)
}

// Insert validates t, appends its values to the column vectors and
// returns the new row's id. Appending writes to every vector, so the
// first Insert after a Clone copies them all.
func (r *Relation) Insert(t Tuple) (RowID, error) {
	if err := r.schema.Validate(t); err != nil {
		return 0, err
	}
	s := r.n
	r.extend(1)
	for ci, v := range t {
		r.cols[ci].store(s, v)
	}
	r.rows.alive.set(s)
	r.live++
	return RowID(s), nil
}

// extend appends k dead slots holding zero values to every vector, owning
// each one first.
func (r *Relation) extend(k int) {
	// Headroom for a copied vector: the next few inserts append in place.
	extra := k + r.n/8 + 16
	r.n += k
	for ci := range r.cols {
		c := r.own(ci, extra)
		switch c.typ {
		case TString:
			c.strs = append(c.strs, make([]string, k)...)
		case TFloat:
			c.ints = c.ints.cover(r.n - 1)
			fallthrough
		default:
			c.nums = append(c.nums, make([]int64, k)...)
		}
	}
	rs := r.ownRows(extra)
	rs.alive = rs.alive.cover(r.n - 1)
}

// Has reports whether a row is stored under id.
func (r *Relation) Has(id RowID) bool { return r.slot(id) >= 0 }

// Get returns a freshly built tuple of the row stored under id.
func (r *Relation) Get(id RowID) (Tuple, bool) {
	return r.AppendRow(make(Tuple, 0, len(r.cols)), id)
}

// AppendRow appends the values of row id to dst, for callers that gather
// rows into storage of their own. It reports false, leaving dst as it
// was, when the row does not exist.
func (r *Relation) AppendRow(dst Tuple, id RowID) (Tuple, bool) {
	s := r.slot(id)
	if s < 0 {
		return dst, false
	}
	for _, c := range r.cols {
		dst = append(dst, c.value(s))
	}
	return dst, true
}

// GetCol returns one field of the row stored under id. col must be a
// column position of the schema.
func (r *Relation) GetCol(id RowID, col int) (Value, bool) {
	s := r.slot(id)
	if s < 0 {
		return Value{}, false
	}
	return r.cols[col].value(s), true
}

// SetCol stores v in one field of the row: a write to a single vector,
// the hot path of MCMC label flips.
func (r *Relation) SetCol(id RowID, col int, v Value) error {
	s := r.slot(id)
	if s < 0 {
		return r.notFound("update", id)
	}
	if col < 0 || col >= len(r.cols) {
		return fmt.Errorf("relstore: relation %q: column %d out of range", r.schema.Name, col)
	}
	if err := r.schema.ValidateCol(col, v); err != nil {
		return err
	}
	r.set(s, col, v)
	return nil
}

// Delete removes the row. Its slot stays behind as a tombstone.
func (r *Relation) Delete(id RowID) error {
	s := r.slot(id)
	if s < 0 {
		return r.notFound("delete", id)
	}
	r.ownRows(0).alive.unset(s)
	r.live--
	return nil
}

// Scan calls fn for every row, in ascending RowID order, until fn returns
// false. The tuple is a scratch buffer refilled for each row and cleared
// when the scan ends: fn must Clone what it keeps and must not mutate it.
func (r *Relation) Scan(fn func(id RowID, t Tuple) bool) {
	r.ScanWhere(-1, Value{}, nil, fn)
}

// ScanSorted is Scan: every scan is in ascending RowID order. The name
// stays for the Δ-netting oracle (internal/world/delta_test.go), which is
// held unmodified as the check that deltas did not change.
func (r *Relation) ScanSorted(fn func(id RowID, t Tuple) bool) { r.Scan(fn) }

// ScanWhere is Scan with the predicate applied inside the storage layer:
// fn sees only the rows whose column eqCol compares Equal to eqVal
// (eqCol < 0: no such condition) and that satisfy keep (nil: all). The
// equality is tested on the column vector, before the row is
// materialized, so a point predicate costs one typed comparison per
// rejected row; keep sees the same scratch tuple fn does.
func (r *Relation) ScanWhere(eqCol int, eqVal Value, keep func(t Tuple) bool, fn func(id RowID, t Tuple) bool) {
	var eq *column
	if eqCol >= 0 {
		eq = r.cols[eqCol]
	}
	scratch := make(Tuple, len(r.cols))
	defer clear(scratch)
	// A STRING, INT or BOOL field needs its kind set once, and then only
	// its payload per row.
	for ci, c := range r.cols {
		scratch[ci].kind = c.typ
	}
	alive := r.rows.alive
	for s := 0; s < r.n; s++ {
		if !alive.get(s) || (eq != nil && !eq.equals(s, eqVal)) {
			continue
		}
		for ci, c := range r.cols {
			switch c.typ {
			case TString:
				scratch[ci].s = c.strs[s]
			case TFloat:
				scratch[ci] = c.value(s)
			default:
				scratch[ci].i = c.nums[s]
			}
		}
		if keep != nil && !keep(scratch) {
			continue
		}
		if !fn(RowID(s), scratch) {
			return
		}
	}
}

// Clone returns a relation with the same rows that shares every vector
// with r; neither side writes to a shared vector again (see Relation).
// The cost is one pointer per column, whatever the number of rows. Used
// to give each MCMC chain, the durable store's shadow and every
// checkpoint its own world.
func (r *Relation) Clone() *Relation {
	c := *r
	c.cols = slices.Clone(r.cols)
	for _, col := range c.cols {
		col.shared.Store(true)
	}
	c.rows.shared.Store(true)
	return &c
}
