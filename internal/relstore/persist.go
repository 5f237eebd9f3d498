package relstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
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
// coded in order of first use, and a number is written as an int64 and a
// code as a uint32 whatever width the store holds it at, so the bytes
// depend on the world's values alone and a reload drops the strings no
// row holds any more. Decoding makes each vector once, at the narrowest
// width its live values need (see Slots).
//
// A relation is dense by RowID, so decoding gives every id below the
// counter a slot, tombstones included, and the counter is a header a
// corrupt or hostile stream can set to anything. checkSlots therefore
// holds the slot vectors a relation header asks for (the liveness bitmap;
// up to 8 B per id for an INT, BOOL or FLOAT column, up to 4 B for a
// STRING one; a FLOAT column's ints bitmap) to K = 513 times the bytes
// the same header obliges the input to hold (the liveness bitmap; 8 B per
// live number, 4 B per live code; the FLOAT ints bitmaps). The bitmap is
// read before any column is sized and each payload before its vector, so
// decoding allocates at most 513 bytes of slot vector per input byte,
// plus a constant per dictionary string, which the input holds in full.
// K is 1 + 8 × 64: a bitmap is 1/64 of an 8 B vector, so a relation of up
// to 8 columns passes whatever it deleted. Dump holds every relation to
// the same rule, so the store never replaces a checkpoint it can read
// with one it cannot.

// ErrBadSnapshot marks input that is not a snapshot of a world: no
// columnar magic, sections that do not frame, payloads that do not fit
// their schema, codes outside the dictionary, or slot vectors out of
// proportion to the input (see checkSlots).
var ErrBadSnapshot = errors.New("malformed snapshot")

const columnarMagic = "\x80col"

// slotRatio is K: the most bytes of slot vectors a relation header may
// ask for per byte it obliges the input to hold.
const slotRatio = 513

// checkSlots refuses a relation header whose slot vectors would exceed
// slotRatio times the bytes it obliges the input to hold. Dictionary
// bytes are left out, because a reload compacts them. It counts in
// float64, which no header can overflow.
func checkSlots(cols []Column, n, live int) error {
	bitmap := float64(8 * words(n))
	slots, held := bitmap, bitmap
	for _, c := range cols {
		width := 8.0
		if c.Type == TString {
			width = 4
		}
		slots += width * float64(n)
		held += width * float64(live)
		if c.Type == TFloat {
			slots += bitmap
			held += bitmap
		}
	}
	if slots > slotRatio*held {
		return fmt.Errorf("%d columns over %d ids, %d live, ask for %.0f bytes of slots against %.0f bytes of input, more than %d times",
			len(cols), n, live, slots, held, slotRatio)
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
		if err := checkSlots(rel.schema.Cols, rel.n, rel.live); err != nil {
			return fmt.Errorf("relstore: relation %q cannot be snapshotted: %w", name, err)
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
				e.u64(uint64(c.vec.At(s)))
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
		if code := c.vec.At(s); alive.get(s) && remap[code] == 0 {
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
		if code := c.vec.At(s); alive.get(s) && remap[code] == next {
			e.str(table[code])
			next++
		}
	}
	e.uvarint(4 * uint64(live))
	for s := 0; s < n; s++ {
		if alive.get(s) {
			e.u32(remap[c.vec.At(s)] - 1)
		}
	}
}

// ReadDB reads a database written by Dump from r. See DecodeDB.
func ReadDB(r io.Reader) (*DB, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("relstore: reading snapshot: %w", err)
	}
	return DecodeDB(data)
}

// DecodeDB decodes a database written by Dump. Input that is not a
// well-formed snapshot is reported as ErrBadSnapshot, and the memory used
// is bounded by what the input holds (see checkSlots), whatever its
// headers claim. The database does not refer to data.
func DecodeDB(data []byte) (*DB, error) {
	rest, ok := bytes.CutPrefix(data, []byte(columnarMagic))
	if !ok {
		return nil, fmt.Errorf("relstore: decoding snapshot: %w: no %q magic", ErrBadSnapshot, columnarMagic)
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
	alive := d.sectionWords("liveness", n)
	if d.err != nil {
		return d.err
	}
	if err := checkSlots(cols, n, nlive); err != nil {
		return err
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
	// The vector is made once, at the width its largest value needs.
	var lg uint8
	for j := range live {
		x := int64(binary.LittleEndian.Uint64(b[8*j:]))
		if c.typ == TBool && x != 0 && x != 1 {
			return fmt.Errorf("bool payload %d", x)
		}
		lg = max(lg, lgOf(x))
	}
	c.vec = makeSlots(lg, n, 0)
	j := 0
	for s := range n {
		if alive.get(s) {
			c.vec.set(s, int64(binary.LittleEndian.Uint64(b[8*j:])))
			j++
		}
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
	// The vector is made once, at the width the largest code needs.
	c.vec = makeSlots(lgOf(int64(max(count, 1)-1)), n, 0)
	j := 0
	for s := range n {
		if !alive.get(s) {
			continue
		}
		code := binary.LittleEndian.Uint32(b[4*j:])
		if uint64(code) >= count {
			return fmt.Errorf("code %d outside a dictionary of %d", code, count)
		}
		c.vec.set(s, int64(code))
		j++
	}
	return nil
}
