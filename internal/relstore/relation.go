package relstore

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
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
// a row from the vectors, scans refill one scratch tuple per row. A
// STRING vector holds codes, 1 B each while every code in it is below
// 256 and 4 B once a larger one is stored (see Codes); the dictionary
// they index is shared by every world descended from the column and is
// not copied with the vector (see dict). An INT, BOOL or FLOAT vector is
// 1, 2, 4 or 8 B per slot, the narrowest that holds every value stored in
// it (see nums). Either kind widens only in a vector its writer owns.
//
// A Relation is safe for any number of concurrent readers, Clone
// included; a writer needs it exclusively.
type Relation struct {
	schema *Schema
	cols   []*column // one vector per attribute, each n slots long
	rows   *rowSet
	n      int    // ids handed out: the next Insert assigns RowID(n)
	live   int    // rows not deleted
	evGen  uint64 // writes that can change evidence (EvidenceGen)
}

// column is one attribute of every slot. TInt and TBool payloads and the
// bits of a TFloat live in nums, at the narrowest width that holds every
// value stored (see nums); a string's slot in codes holds its code in
// dict. A FLOAT column accepts integers, and they keep their kind (Int(1)
// and Float(1) key differently): ints marks the slots whose nums entry is
// an integer payload rather than IEEE 754 bits.
type column struct {
	shared atomic.Bool // visible to another world: copy before writing
	typ    Type
	nums   nums
	codes  Codes
	dict   *dict // TString only
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
		if c.Type == TString {
			r.cols[i].dict = newDict()
		}
	}
	return r
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of rows.
func (r *Relation) Len() int { return r.live }

// EvidenceGen counts the writes that can change evidence: every Insert,
// every Delete, and every SetCol of a column the schema does not declare
// hidden. A sampler's flips write only hidden columns and leave it
// alone, so a reader that derived something from the evidence knows it
// still holds while the count has not moved. Clone carries it.
func (r *Relation) EvidenceGen() uint64 { return r.evGen }

// NextID returns the id the next Insert assigns; every id below it has
// been issued, whether its row is live or deleted.
func (r *Relation) NextID() RowID { return RowID(r.n) }

// value materializes slot s.
func (c *column) value(s int) Value {
	switch c.typ {
	case TString:
		return Value{kind: TString, s: c.dict.strs()[c.codes.At(s)]}
	case TFloat:
		if c.ints.get(s) {
			return Value{kind: TInt, i: c.nums.at(s)}
		}
		return Value{kind: TFloat, f: math.Float64frombits(uint64(c.nums.at(s)))}
	}
	return Value{kind: c.typ, i: c.nums.at(s)}
}

// payload returns the int64 a numeric column holds for v: its integer, or
// the IEEE 754 bits of a float.
func payload(v Value) int64 {
	if v.kind == TFloat {
		return int64(math.Float64bits(v.f))
	}
	return v.i
}

// store writes v, already validated against the column type, into slot s.
func (c *column) store(s int, v Value) {
	switch {
	case c.typ == TString:
		c.codes.set(s, c.dict.intern(v.s))
		return
	case c.typ == TFloat && v.kind == TInt:
		c.ints.set(s)
	case c.typ == TFloat:
		c.ints.unset(s)
	}
	c.nums.set(s, payload(v))
}

// grown returns a copy of x with room for extra more elements.
func grown[T any](x []T, extra int) []T {
	return append(make([]T, 0, len(x)+extra), x...)
}

// copyOf returns an unshared copy of the column with spare capacity for
// extra more slots, wide enough for v, the value about to be stored.
func (c *column) copyOf(extra int, v Value) *column {
	n := &column{typ: c.typ, dict: c.dict}
	switch c.typ {
	case TString:
		n.codes = c.codes.grown(extra)
	case TFloat:
		n.ints = grown(c.ints, extra/64+1)
		fallthrough
	default:
		n.nums = c.nums.grown(lgOf(payload(v)), extra)
	}
	return n
}

// own returns column ci ready to store v: the vector itself while no
// other world can see it, otherwise a private copy, made at the width v
// needs, that replaces it in this relation. extra is the number of slots
// the caller is about to append (0 for a store into an existing slot).
func (r *Relation) own(ci, extra int, v Value) *column {
	c := r.cols[ci]
	if c.shared.Load() {
		c = c.copyOf(extra, v)
		r.cols[ci] = c
	}
	return c
}

// set stores v, already validated, in slot s of column ci. Storing the
// value the slot already holds (same kind, same payload bits) writes
// nothing, so it never un-shares the vector.
func (r *Relation) set(s, ci int, v Value) {
	if !r.cols[ci].value(s).Identical(v) {
		r.own(ci, 0, v).store(s, v)
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
// first Insert after a Clone copies them all, each at the width the new
// value needs.
func (r *Relation) Insert(t Tuple) (RowID, error) {
	if err := r.schema.Validate(t); err != nil {
		return 0, err
	}
	s := r.n
	r.n++
	// Headroom for a copied vector: the next few inserts append in place.
	extra := 1 + s/8 + 16
	for ci, v := range t {
		c := r.own(ci, extra, v)
		switch c.typ {
		case TString:
			c.codes.push()
		case TFloat:
			c.ints = c.ints.cover(s)
			fallthrough
		default:
			c.nums.push()
		}
		c.store(s, v)
	}
	rs := r.ownRows(extra)
	rs.alive = rs.alive.cover(s)
	rs.alive.set(s)
	r.live++
	r.evGen++
	return RowID(s), nil
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
	if !r.schema.Hidden(col) {
		r.evGen++
	}
	return nil
}

// Intern enters strs, in order, into the dictionary of STRING column col
// without storing them in any row, so later writes of them find their
// codes issued. A loader uses it to give a closed inventory of values the
// first codes in a fixed order. Like a write, it grows the dictionary
// every world descended from this column shares.
func (r *Relation) Intern(col int, strs ...string) error {
	c, err := r.stringCol(col)
	if err != nil {
		return err
	}
	c.dict.internAll(strs)
	return nil
}

// StringCodes lends STRING column col as it stands: a read-only view of
// its code vector, at the width the vector has, one code per issued id (a
// deleted row's slot holds a stale one), and the dictionary table the
// codes index. Nothing is copied or widened. The vector is marked shared
// first, as Clone marks it, so no later write in any world, this one
// included, changes it in place: a writer copies it (and widens only its
// copy) and goes on with that. The caller must not write to the table.
func (r *Relation) StringCodes(col int) (Codes, []string, error) {
	c, err := r.stringCol(col)
	if err != nil {
		return Codes{}, nil, err
	}
	c.shared.Store(true)
	return c.codes.prefix(r.n), c.dict.strs(), nil
}

// CodeAt returns the code STRING column col holds in slot id, read from
// the column's current vector on every call, so it sees every write
// before it and never a vector an Insert or a copy on write replaced; a
// deleted row's slot still holds its last code. It marks nothing shared
// and reads either width. id must be below NextID; the code indexes the
// table StringCodes lends.
func (r *Relation) CodeAt(id RowID, col int) uint32 { return r.cols[col].codes.At(int(id)) }

// stringCol returns column col, which must be a STRING column.
func (r *Relation) stringCol(col int) (*column, error) {
	if col < 0 || col >= len(r.cols) || r.cols[col].typ != TString {
		return nil, fmt.Errorf("relstore: relation %q: column %d is not a STRING column", r.schema.Name, col)
	}
	return r.cols[col], nil
}

// Delete removes the row. Its slot stays behind as a tombstone.
func (r *Relation) Delete(id RowID) error {
	s := r.slot(id)
	if s < 0 {
		return r.notFound("delete", id)
	}
	r.ownRows(0).alive.unset(s)
	r.live--
	r.evGen++
	return nil
}

// Scan calls fn for every row, in ascending RowID order, until fn returns
// false. The tuple is a scratch buffer refilled for each row and cleared
// when the scan ends: fn must Clone what it keeps and must not mutate it.
func (r *Relation) Scan(fn func(id RowID, t Tuple) bool) {
	r.ScanWhere(-1, Value{}, nil, fn)
}

// ScanWhere is Scan with the predicate applied inside the storage layer:
// fn sees only the rows whose column eqCol compares Equal to eqVal
// (eqCol < 0: no such condition) and that satisfy keep (nil: all). The
// equality is tested on the column vector, before the row is
// materialized, so a point predicate costs one typed comparison per
// rejected row; keep sees the same scratch tuple fn does. On a STRING
// column that comparison is of codes: eqVal is looked up in the column's
// dictionary once, and a string no row was ever given selects nothing
// without entering the dictionary. On an INT or BOOL column it is made at
// the vector's width, and a constant the width cannot hold selects
// nothing before any row is read. Neither keep nor fn may write to r.
func (r *Relation) ScanWhere(eqCol int, eqVal Value, keep func(t Tuple) bool, fn func(id RowID, t Tuple) bool) {
	// How to read each column is settled once per scan, not per cell.
	var buf [8]scanCol
	cols := buf[:0]
	scratch := make(Tuple, len(r.cols))
	defer clear(scratch)
	for ci, c := range r.cols {
		// A STRING, INT or BOOL field needs its kind set once, and then
		// only its payload per row.
		scratch[ci].kind = c.typ
		cols = append(cols, readerOf(c))
	}
	if eqCol < 0 {
		scanRows(r, nil, cols, scratch, keep, fn)
		return
	}
	var match func(w int) uint64
	switch c := r.cols[eqCol]; {
	case c.typ == TString:
		code, ok := uint32(0), false
		if eqVal.kind == TString {
			code, ok = c.dict.lookup(eqVal.s)
		}
		switch {
		case !ok:
			return
		case c.codes.wide != nil:
			match = func(w int) uint64 { return equalMask(c.codes.wide, code, w) }
		case code < 1<<8:
			match = func(w int) uint64 { return equalMask(c.codes.narrow, uint8(code), w) }
		default:
			return
		}
	case c.typ == eqVal.kind && c.typ != TFloat:
		x := eqVal.i
		if lgOf(x) > c.nums.lg {
			return
		}
		switch c.nums.lg {
		case 0:
			match = func(w int) uint64 { return equalMask(c.nums.w8, uint8(x), w) }
		case 1:
			match = func(w int) uint64 { return equalMask(c.nums.w16, uint16(x), w) }
		case 2:
			match = func(w int) uint64 { return equalMask(c.nums.w32, uint32(x), w) }
		default:
			match = func(w int) uint64 { return equalMask(c.nums.w64, x, w) }
		}
	default:
		// A FLOAT column, or a constant of another kind: compare the
		// materialized value, numerically across INT and FLOAT.
		eqKeep := func(t Tuple) bool { return t[eqCol].Equal(eqVal) && (keep == nil || keep(t)) }
		scanRows(r, nil, cols, scratch, eqKeep, fn)
		return
	}
	scanRows(r, match, cols, scratch, keep, fn)
}

// equalMask returns bit i set where slot 64w+i of vec holds x.
func equalMask[T slot](vec []T, x T, w int) uint64 {
	var m uint64
	for i, y := range vec[w<<6 : min(len(vec), w<<6+64)] {
		if y == x {
			m |= 1 << i
		}
	}
	return m
}

// scanCol is how a scan reads one column: the vector it reads, at the
// width the column holds it, taken out of the column so that a cell costs
// one load, and for a STRING column the dictionary table its codes index.
type scanCol struct {
	read readKind
	u8   []uint8 // readCode8, readNum8
	u16  []uint16
	u32  []uint32 // readCode32, readNum32
	i64  []int64
	strs []string
	c    *column // readFloat
}

// readKind is a column's type and vector width: the one switch a scan
// makes per cell.
type readKind uint8

const (
	readCode8 readKind = iota
	readCode32
	readFloat
	readNum8
	readNum16
	readNum32
	readNum64
)

func readerOf(c *column) scanCol {
	switch {
	case c.typ == TString && c.codes.wide != nil:
		return scanCol{read: readCode32, u32: c.codes.wide, strs: c.dict.strs()}
	case c.typ == TString:
		return scanCol{read: readCode8, u8: c.codes.narrow, strs: c.dict.strs()}
	case c.typ == TFloat:
		return scanCol{read: readFloat, c: c}
	}
	switch c.nums.lg {
	case 0:
		return scanCol{read: readNum8, u8: c.nums.w8}
	case 1:
		return scanCol{read: readNum16, u16: c.nums.w16}
	case 2:
		return scanCol{read: readNum32, u32: c.nums.w32}
	}
	return scanCol{read: readNum64, i64: c.nums.w64}
}

// scanRows is ScanWhere's loop over the live rows, keeping in each word
// of 64 slots only those match sets (nil: every one). It refills t from
// each row it keeps and hands it to keep and fn.
func scanRows(r *Relation, match func(w int) uint64, cols []scanCol, t Tuple, keep func(t Tuple) bool, fn func(id RowID, t Tuple) bool) {
	for w, live := range r.rows.alive[:words(r.n)] {
		if match != nil && live != 0 {
			live &= match(w)
		}
		for ; live != 0; live &= live - 1 {
			s := w<<6 | bits.TrailingZeros64(live)
			for ci := range cols {
				col := &cols[ci]
				switch col.read {
				case readCode8:
					t[ci].s = col.strs[col.u8[s]]
				case readCode32:
					t[ci].s = col.strs[col.u32[s]]
				case readFloat:
					t[ci] = col.c.value(s)
				case readNum8:
					t[ci].i = int64(col.u8[s])
				case readNum16:
					t[ci].i = int64(col.u16[s])
				case readNum32:
					t[ci].i = int64(col.u32[s])
				default:
					t[ci].i = col.i64[s]
				}
			}
			if keep != nil && !keep(t) {
				continue
			}
			if !fn(RowID(s), t) {
				return
			}
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
