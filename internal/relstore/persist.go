package relstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/bits"
)

// Snapshot persistence: a whole database (one possible world) is written
// to and restored from a stream — the world encoding inside
// internal/store's checkpoint files.
//
// Dump writes the columnar encoding, the vectors as the store holds them:
//
//	"\x80col"   magic
//	uvarint     relation count, then per relation, in name order:
//	  string      name
//	  uvarint     column count, then per column: string name, byte type
//	  uvarint     id counter n: the RowID the next Insert assigns
//	  uvarint     live rows
//	  section     liveness bitmap: ⌈n/64⌉ uint64 words, bit i = row i
//	  per column, the live rows' payloads in ascending id order:
//	    INT, BOOL   section: one int64 per row
//	    FLOAT       section: one int64 per row, an integer or IEEE 754
//	                bits; section: ⌈n/64⌉ words, bit i set where row
//	                i's payload is an integer
//	    STRING      section: uvarint count + that many strings, the
//	                column's dictionary; section: one uint32 code per row
//
// A string is a uvarint length and its bytes; a section is a uvarint
// byte length and that many bytes; every fixed-width number is
// little-endian. The dictionary holds only the strings live rows use,
// coded in order of first use, so the bytes depend on the world's values
// alone and a reload drops the strings no row holds any more.
//
// ReadDB also reads the gob encoding Dump wrote until the store went
// columnar (see readGob).

// ErrBadSnapshot marks a snapshot that decodes but does not describe a
// world: row ids out of order or beyond the id counter, rows that do not
// fit their schema, unknown column types, codes outside the dictionary,
// an id counter out of proportion to the rows (see checkDensity).
var ErrBadSnapshot = errors.New("malformed snapshot")

// columnarMagic opens the columnar encoding. A gob stream opens with the
// byte count of its first message as a gob unsigned integer: one byte
// below 0x80 for a count under 128, otherwise a negated byte count of 1
// to 8 (0xF8–0xFF) followed by the count. 0x80 is neither, so the first
// byte tells the two encodings apart.
const columnarMagic = "\x80col"

// A relation is dense by RowID, so one restored from a snapshot gets a
// slot for every id up to its counter, tombstones included. The counter is
// a header a corrupt or hostile stream can set to anything; a snapshot is
// therefore accepted only while the counter stays within snapshotSlack
// ids plus snapshotSpread ids per row present. Dump holds a world to the
// same rule, so the store never replaces a checkpoint it can read with one
// it cannot: a relation that has deleted more than 15 of every 16 rows it
// ever held, beyond the first 65 536, fails its checkpoint and stays
// recoverable from the previous one and the log.
const (
	snapshotSlack  = 1 << 16
	snapshotSpread = 16
)

func checkDensity(rows int, nextID RowID) error {
	if nextID < 0 || nextID-snapshotSlack > snapshotSpread*RowID(rows) {
		return fmt.Errorf("id counter %d for %d rows: negative or more than %d + %d per row", nextID, rows, snapshotSlack, snapshotSpread)
	}
	return nil
}

// dumpBuffer is the write buffer Dump streams through.
const dumpBuffer = 32 << 10

// Dump writes the database to w in the columnar encoding, streaming each
// vector through one buffer: what it allocates does not grow with the
// number of rows.
func (db *DB) Dump(w io.Writer) error {
	names := db.Names()
	for _, name := range names {
		rel := db.rels[name]
		if err := checkDensity(rel.live, RowID(rel.n)); err != nil {
			return fmt.Errorf("relstore: relation %q is too sparse to snapshot: %w", name, err)
		}
	}
	bw := bufio.NewWriterSize(w, dumpBuffer)
	e := encoder{w: bw}
	e.raw(columnarMagic)
	e.uvarint(uint64(len(names)))
	for _, name := range names {
		e.relation(db.rels[name])
	}
	if e.err != nil {
		return e.err
	}
	return bw.Flush()
}

// encoder appends values to a buffered writer's free space. The first
// error stops it.
type encoder struct {
	w   *bufio.Writer
	err error
}

// room returns the writer's free space, flushing first when fewer than k
// bytes are free.
func (e *encoder) room(k int) []byte {
	if e.w.Available() < k && e.err == nil {
		e.err = e.w.Flush()
	}
	return e.w.AvailableBuffer()
}

func (e *encoder) put(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

func (e *encoder) u64(x uint64) {
	if e.err == nil {
		e.put(binary.LittleEndian.AppendUint64(e.room(8), x))
	}
}

func (e *encoder) u32(x uint32) {
	if e.err == nil {
		e.put(binary.LittleEndian.AppendUint32(e.room(4), x))
	}
}

func (e *encoder) uvarint(x uint64) {
	if e.err == nil {
		e.put(binary.AppendUvarint(e.room(binary.MaxVarintLen64), x))
	}
}

func (e *encoder) raw(s string) {
	if e.err == nil {
		_, e.err = e.w.WriteString(s)
	}
}

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.raw(s)
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func words(n int) int { return n/64 + min(n%64, 1) }

func (e *encoder) relation(r *Relation) {
	e.str(r.schema.Name)
	e.uvarint(uint64(len(r.cols)))
	for _, c := range r.schema.Cols {
		e.str(c.Name)
		e.put(append(e.room(1), byte(c.Type)))
	}
	e.uvarint(uint64(r.n))
	e.uvarint(uint64(r.live))
	alive := r.rows.alive[:words(r.n)]
	e.uvarint(8 * uint64(len(alive)))
	for _, w := range alive {
		e.u64(w)
	}
	for _, c := range r.cols {
		if c.typ == TString {
			e.strings(c, alive, r.n, r.live)
			continue
		}
		e.uvarint(8 * uint64(r.live))
		for s := 0; s < r.n; s++ {
			if alive.get(s) {
				e.u64(uint64(c.nums[s]))
			}
		}
		if c.typ == TFloat {
			// A tombstone keeps the bit of the row it held: leave it out.
			e.uvarint(8 * uint64(len(alive)))
			for i, w := range alive {
				e.u64(c.ints[i] & w)
			}
		}
	}
}

// strings writes a STRING column: the dictionary of the strings live rows
// use, coded in order of first use, then each live row's code in it.
func (e *encoder) strings(c *column, alive bitmap, n, live int) {
	table := c.dict.strs()
	// remap[code] is 1 + the string's code in the snapshot, 0 until a live
	// row shows it.
	remap := make([]uint32, len(table))
	var count uint32
	size := 0
	for s := 0; s < n; s++ {
		if code := c.codes[s]; alive.get(s) && remap[code] == 0 {
			count++
			remap[code] = count
			size += uvarintLen(uint64(len(table[code]))) + len(table[code])
		}
	}
	e.uvarint(uint64(uvarintLen(uint64(count)) + size))
	e.uvarint(uint64(count))
	// A string's first use is the first live row holding the next code.
	next := uint32(1)
	for s := 0; s < n && next <= count; s++ {
		if code := c.codes[s]; alive.get(s) && remap[code] == next {
			e.str(table[code])
			next++
		}
	}
	e.uvarint(4 * uint64(live))
	for s := 0; s < n; s++ {
		if alive.get(s) {
			e.u32(remap[c.codes[s]] - 1)
		}
	}
}

// ReadDB reads a database written by Dump, in either encoding, from r.
// See DecodeDB.
func ReadDB(r io.Reader) (*DB, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("relstore: reading snapshot: %w", err)
	}
	return DecodeDB(data)
}

// DecodeDB decodes a database written by Dump, in either encoding. Input
// that is not a well-formed snapshot is reported as an error
// (ErrBadSnapshot once it got past the framing), and the memory used is
// bounded by what the input holds (see checkDensity), whatever its
// headers claim. The database does not refer to data.
func DecodeDB(data []byte) (*DB, error) {
	rest, ok := bytes.CutPrefix(data, []byte(columnarMagic))
	if !ok {
		return readGob(data)
	}
	db := NewDB()
	d := decoder{b: rest}
	nrels := d.uvarint()
	for i := uint64(0); i < nrels && d.err == nil; i++ {
		name := d.str()
		if d.err == nil {
			if err := db.decodeRelation(&d, name); err != nil {
				return nil, fmt.Errorf("relstore: snapshot relation %q: %w: %w", name, ErrBadSnapshot, err)
			}
		}
	}
	if d.err == nil && len(d.b) > 0 {
		d.fail("%d bytes after the last relation", len(d.b))
	}
	if d.err != nil {
		return nil, fmt.Errorf("relstore: decoding snapshot: %w: %w", ErrBadSnapshot, d.err)
	}
	return db, nil
}

// decoder reads the columnar encoding. Every read first checks that the
// input holds what it asks for, so no length the input cannot back sizes
// an allocation. The first failure stops it.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// take returns the next n bytes of input.
func (d *decoder) take(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.fail("%d bytes declared, %d left", n, len(d.b))
		return nil
	}
	b := d.b[:n]
	d.b = d.b[n:]
	return b
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	x, k := binary.Uvarint(d.b)
	if k <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.b = d.b[k:]
	return x
}

func (d *decoder) str() string { return string(d.take(d.uvarint())) }

// section returns the next section, which must be want bytes long.
func (d *decoder) section(what string, want uint64) []byte {
	b := d.take(d.uvarint())
	if d.err == nil && uint64(len(b)) != want {
		d.fail("%s section of %d bytes, want %d", what, len(b), want)
	}
	return b
}

// sectionWords returns a section of uint64 words holding exactly k bits,
// all below bit k.
func (d *decoder) sectionWords(what string, k int) bitmap {
	b := d.section(what, 8*uint64(words(k)))
	if d.err != nil {
		return nil
	}
	out := make(bitmap, words(k))
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	if k%64 != 0 && out[len(out)-1]>>(k%64) != 0 {
		d.fail("%s bitmap has bits past %d", what, k)
	}
	return out
}

func (db *DB) decodeRelation(d *decoder, name string) error {
	ncols := d.uvarint()
	// A column costs at least two bytes: its name's length and its type.
	if d.err == nil && ncols > uint64(len(d.b))/2 {
		return fmt.Errorf("%d columns declared, %d bytes left", ncols, len(d.b))
	}
	cols := make([]Column, ncols)
	for i := range cols {
		cols[i].Name = d.str()
		if t := d.take(1); d.err == nil {
			cols[i].Type = Type(t[0])
		}
	}
	next, live := d.uvarint(), d.uvarint()
	if d.err != nil {
		return d.err
	}
	for _, c := range cols {
		if c.Type > TBool {
			return fmt.Errorf("column %q has unknown type %v", c.Name, c.Type)
		}
	}
	schema, err := NewSchema(name, cols...)
	if err != nil {
		return err
	}
	if live > next || next > 1<<62 {
		return fmt.Errorf("%d live rows over %d ids", live, next)
	}
	n, nlive := int(next), int(live)
	if err := checkDensity(nlive, RowID(n)); err != nil {
		return err
	}
	alive := d.sectionWords("liveness", n)
	if d.err != nil {
		return d.err
	}
	if got := popcount(alive); got != nlive {
		return fmt.Errorf("liveness bitmap holds %d rows, header says %d", got, nlive)
	}
	rel, err := db.Create(schema)
	if err != nil {
		return err
	}
	rel.n, rel.live = n, nlive
	rel.rows.alive = alive
	for i, c := range rel.cols {
		if err := c.decode(d, alive, n, nlive); err != nil {
			return fmt.Errorf("column %q: %w", cols[i].Name, err)
		}
	}
	return nil
}

func popcount(b bitmap) int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// decode reads the column's sections and spreads the live rows' payloads
// over n slots, leaving tombstones zero.
func (c *column) decode(d *decoder, alive bitmap, n, live int) error {
	if c.typ == TString {
		return c.decodeStrings(d, alive, n, live)
	}
	b := d.section("payload", 8*uint64(live))
	if d.err != nil {
		return d.err
	}
	c.nums = make([]int64, n)
	j := 0
	for s := 0; s < n; s++ {
		if !alive.get(s) {
			continue
		}
		x := int64(binary.LittleEndian.Uint64(b[8*j:]))
		if c.typ == TBool && x != 0 && x != 1 {
			return fmt.Errorf("bool payload %d", x)
		}
		c.nums[s] = x
		j++
	}
	if c.typ != TFloat {
		return nil
	}
	c.ints = d.sectionWords("ints", n)
	if d.err != nil {
		return d.err
	}
	for i, w := range c.ints {
		if w&^alive[i] != 0 {
			return errors.New("ints bitmap marks a tombstone")
		}
	}
	return nil
}

func (c *column) decodeStrings(d *decoder, alive bitmap, n, live int) error {
	sd := decoder{b: d.take(d.uvarint())}
	if d.err != nil {
		return d.err
	}
	count := sd.uvarint()
	// A string costs at least its length byte.
	if sd.err == nil && count > uint64(len(sd.b)) {
		return fmt.Errorf("%d strings declared, %d bytes left", count, len(sd.b))
	}
	strs := make([]string, count)
	for i := range strs {
		strs[i] = sd.str()
	}
	if sd.err == nil && len(sd.b) > 0 {
		sd.fail("%d bytes after the dictionary", len(sd.b))
	}
	if sd.err != nil {
		return fmt.Errorf("dictionary: %w", sd.err)
	}
	dict, ok := dictOf(strs)
	if !ok {
		return errors.New("dictionary holds a string twice")
	}
	c.dict = dict
	b := d.section("codes", 4*uint64(live))
	if d.err != nil {
		return d.err
	}
	c.codes = make([]uint32, n)
	j := 0
	for s := 0; s < n; s++ {
		if !alive.get(s) {
			continue
		}
		code := binary.LittleEndian.Uint32(b[4*j:])
		if uint64(code) >= count {
			return fmt.Errorf("code %d outside a dictionary of %d", code, count)
		}
		c.codes[s] = code
		j++
	}
	return nil
}

// wireValue is the gob form of Value, read from snapshots written before
// the store went columnar.
type wireValue struct {
	Kind Type
	I    int64
	F    float64
	S    string
}

// wireRelation is the gob form of Relation: the live rows in ascending
// id order. Snapshots written before the store held columns also carry
// an Indexes field, which gob skips.
type wireRelation struct {
	Name   string
	Cols   []Column
	NextID RowID
	RowIDs []RowID
	Rows   [][]wireValue
}

type wireDB struct {
	Relations []wireRelation
}

// readGob decodes the gob encoding, inserting its rows one by one.
func readGob(data []byte) (*DB, error) {
	var wire wireDB
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&wire); err != nil {
		return nil, fmt.Errorf("relstore: decoding snapshot: %w", err)
	}
	db := NewDB()
	for i := range wire.Relations {
		if err := db.readRelation(&wire.Relations[i]); err != nil {
			return nil, fmt.Errorf("relstore: snapshot relation %q: %w: %w", wire.Relations[i].Name, ErrBadSnapshot, err)
		}
	}
	return db, nil
}

func (db *DB) readRelation(wr *wireRelation) error {
	for _, c := range wr.Cols {
		if c.Type > TBool {
			return fmt.Errorf("column %q has unknown type %v", c.Name, c.Type)
		}
	}
	schema, err := NewSchema(wr.Name, wr.Cols...)
	if err != nil {
		return err
	}
	rel, err := db.Create(schema)
	if err != nil {
		return err
	}
	if len(wr.RowIDs) != len(wr.Rows) {
		return fmt.Errorf("%d ids but %d rows", len(wr.RowIDs), len(wr.Rows))
	}
	if err := checkDensity(len(wr.Rows), wr.NextID); err != nil {
		return err
	}
	row := make(Tuple, len(wr.Cols))
	prev := RowID(-1)
	for i, id := range wr.RowIDs {
		// Ids are non-negative, ascend strictly and stay below the counter,
		// so none repeats and no later Insert hands out one that is in use.
		if id <= prev || id >= wr.NextID {
			return fmt.Errorf("row id %d after %d is negative, out of order or not below the id counter %d", id, prev, wr.NextID)
		}
		prev = id
		if len(wr.Rows[i]) != len(row) {
			return fmt.Errorf("row %d has %d values, want %d", id, len(wr.Rows[i]), len(row))
		}
		for j, wv := range wr.Rows[i] {
			row[j] = normalized(wv)
		}
		// The ids the stream skipped become tombstones.
		if gap := int(id) - rel.n; gap > 0 {
			rel.extend(gap)
		}
		if _, err := rel.Insert(row); err != nil {
			return fmt.Errorf("row %d: %w", id, err)
		}
	}
	if gap := int(wr.NextID) - rel.n; gap > 0 {
		rel.extend(gap)
	}
	return nil
}

// normalized converts a wire value, dropping whatever the stream put in
// the payload fields its kind does not use.
func normalized(w wireValue) Value {
	switch w.Kind {
	case TInt:
		return Int(w.I)
	case TBool:
		return Bool(w.I != 0)
	case TFloat:
		return Float(w.F)
	case TString:
		return String(w.S)
	}
	return Value{kind: w.Kind} // no column accepts it: Insert reports it
}
