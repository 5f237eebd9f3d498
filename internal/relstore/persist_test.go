package relstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"strconv"
	"testing"
)

func snapshotDB(t testing.TB) *DB {
	t.Helper()
	db := NewDB()
	tok := db.MustCreate(MustSchema("TOKEN",
		Column{"TOK_ID", TInt}, Column{"DOC_ID", TInt}, Column{"STRING", TString}, Column{"LABEL", TString}))
	for i := 0; i < 25; i++ {
		lbl := "O"
		if i%5 == 0 {
			lbl = "B-PER"
		}
		tok.Insert(Tuple{Int(int64(i)), Int(int64(i / 10)), String("w"), String(lbl)})
	}
	// A second relation with floats and bools.
	misc := db.MustCreate(MustSchema("MISC",
		Column{"X", TFloat}, Column{"OK", TBool}))
	misc.Insert(Tuple{Float(2.5), Bool(true)})
	misc.Insert(Tuple{Float(-1), Bool(false)})
	// A deleted row leaves a RowID gap that must survive round-trips.
	id, _ := tok.Insert(Tuple{Int(99), Int(9), String("gone"), String("O")})
	tok.Delete(id)
	return db
}

// assertDBEqual holds b to a: same relations, identical rows (a −0 keeps
// its sign) under the same ids in the same scan order, and the same id
// for the next insert.
func assertDBEqual(t testing.TB, a, b *DB) {
	t.Helper()
	an, bn := a.Names(), b.Names()
	if len(an) != len(bn) {
		t.Fatalf("relation counts differ: %v vs %v", an, bn)
	}
	for i := range an {
		if an[i] != bn[i] {
			t.Fatalf("relation names differ: %v vs %v", an, bn)
		}
		ra, _ := a.Relation(an[i])
		rb, _ := b.Relation(an[i])
		if ra.Len() != rb.Len() || ra.n != rb.n {
			t.Fatalf("%s: %d rows, next id %d vs %d rows, next id %d", an[i], ra.Len(), ra.n, rb.Len(), rb.n)
		}
		var ids []RowID
		rb.Scan(func(id RowID, _ Tuple) bool { ids = append(ids, id); return true })
		ra.Scan(func(id RowID, tu Tuple) bool {
			other, ok := rb.Get(id)
			if !ok || !identical(tu, other) {
				t.Fatalf("%s row %d: %v vs %v (ok=%v)", an[i], id, tu, other, ok)
			}
			if len(ids) == 0 || ids[0] != id {
				t.Fatalf("%s: scan order differs at row %d", an[i], id)
			}
			ids = ids[1:]
			return true
		})
	}
}

// identical reports whether two rows hold the same kinds and payload bits.
func identical(a, b Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].identical(b[i]) {
			return false
		}
	}
	return true
}

func TestSnapshotRoundTrip(t *testing.T) {
	db := snapshotDB(t)
	var buf bytes.Buffer
	if err := db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertDBEqual(t, db, back)

	// RowID sequence continues past the snapshot (no collisions), in step
	// with the world that was dumped.
	tok, _ := db.Relation("TOKEN")
	btok, _ := back.Relation("TOKEN")
	row := Tuple{Int(1000), Int(0), String("new"), String("O")}
	id, _ := tok.Insert(row)
	bid, err := btok.Insert(row)
	if err != nil || bid != id || id != 26 {
		t.Fatalf("insert after restore: id %d (%v), the dumped world assigns %d, want 26", bid, err, id)
	}
	assertDBEqual(t, db, back)
}

// TestDumpGolden pins the columnar encoding: testdata/dump2.golden is
// Dump of snapshotDB.
func TestDumpGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/dump2.golden")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snapshotDB(t).Dump(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Dump wrote %d bytes that differ from the %d of testdata/dump2.golden", buf.Len(), len(want))
	}
}

// TestReloadCompactsDictionary: strings that no live row holds any more
// stay in a column's dictionary until the world is read back from a
// snapshot, which interns only what its rows hold.
func TestReloadCompactsDictionary(t *testing.T) {
	db := snapshotDB(t)
	tok, _ := db.Relation("TOKEN")
	for i := 0; i < 100; i++ {
		if err := tok.SetCol(RowID(i%25), 2, String("overwrite"+strconv.Itoa(i))); err != nil {
			t.Fatal(err)
		}
	}
	live := map[string]bool{}
	tok.Scan(func(_ RowID, tu Tuple) bool { live[tu[2].AsString()] = true; return true })
	if n := len(tok.cols[2].dict.strs()); n <= len(live) {
		t.Fatalf("the written world's STRING dictionary holds %d strings for %d live ones: no garbage to drop", n, len(live))
	}
	var buf bytes.Buffer
	if err := db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertDBEqual(t, db, back)
	btok, _ := back.Relation("TOKEN")
	if n := len(btok.cols[2].dict.strs()); n > len(live) {
		t.Errorf("the reloaded STRING dictionary holds %d strings, more than the %d live ones", n, len(live))
	}
}

func TestSnapshotEmptyDB(t *testing.T) {
	var buf bytes.Buffer
	if err := NewDB().Dump(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Names()) != 0 {
		t.Errorf("restored empty DB has relations: %v", back.Names())
	}
}

func TestReadDBGarbage(t *testing.T) {
	if _, err := ReadDB(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Error("garbage input: want error")
	}
}

// tombstoned builds a relation R of one INT column over ids 0..last,
// every one deleted but 3, 5000 and last, which hold 30, 31 and 32.
func tombstoned(t testing.TB, last RowID) *DB {
	t.Helper()
	db := NewDB()
	r := db.MustCreate(MustSchema("R", Column{"K", TInt}))
	keep := map[RowID]int64{3: 30, 5000: 31, last: 32}
	for id := RowID(0); id <= last; id++ {
		if _, err := r.Insert(Tuple{Int(keep[id])}); err != nil {
			t.Fatal(err)
		}
		if _, ok := keep[id]; !ok {
			r.Delete(id)
		}
	}
	return db
}

// undumped writes db as Dump would, without holding it to checkSlots.
func undumped(t testing.TB, db *DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	e := encoder{w: bw}
	e.raw(columnarMagic)
	e.uvarint(uint64(len(db.Names())))
	for _, name := range db.Names() {
		e.relation(db.rels[name])
	}
	if e.err != nil || bw.Flush() != nil {
		t.Fatal(e.err)
	}
	return buf.Bytes()
}

// TestReadDBBoundsTombstones: a relation that deleted almost every id it
// issued round-trips, its skipped ids come back as tombstones of the one
// dense layout, and it behaves like any other afterwards; an id counter
// the input does not back is refused before anything is sized by it,
// and Dump refuses exactly the worlds DecodeDB would.
func TestReadDBBoundsTombstones(t *testing.T) {
	const last = 70_000 // past any density rule a few rows could satisfy
	var buf bytes.Buffer
	if err := tombstoned(t, last).Dump(&buf); err != nil {
		t.Fatal(err)
	}
	raw := bytes.Clone(buf.Bytes())
	db, err := ReadDB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertDBEqual(t, tombstoned(t, last), db)
	r, _ := db.Relation("R")
	if v, ok := r.GetCol(5000, 0); !ok || v.AsInt() != 31 {
		t.Errorf("row 5000 = %v, %v", v, ok)
	}
	for _, missing := range []RowID{0, 4, 4999, 5001, last + 1, -1} {
		if _, ok := r.Get(missing); ok {
			t.Errorf("row %d exists", missing)
		}
	}
	if err := r.Delete(5000); err != nil {
		t.Fatal(err)
	}
	id, err := r.Insert(Tuple{Int(33)})
	if err != nil || id != last+1 {
		t.Fatalf("Insert = %d, %v, want id %d", id, err, last+1)
	}
	var ids []RowID
	r.Scan(func(id RowID, tu Tuple) bool { ids = append(ids, id); return true })
	if len(ids) != 3 || ids[0] != 3 || ids[1] != last || ids[2] != last+1 || r.Len() != 3 {
		t.Errorf("scan = %v, Len %d", ids, r.Len())
	}
	// And it survives a round trip and a clone.
	buf.Reset()
	if err := db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertDBEqual(t, db, back)
	assertDBEqual(t, db, db.Clone())

	// A counter further out asks for a liveness bitmap the input does not
	// hold.
	head := columnar("R", []Column{{"K", TInt}}, last+1, 3)
	if !bytes.HasPrefix(raw, head) {
		t.Fatal("the dump does not open with the relation header")
	}
	body := raw[len(head):]
	for _, next := range []uint64{last + 65, 1 << 55, math.MaxInt64} {
		raw := append(columnar("R", []Column{{"K", TInt}}, next, 3), body...)
		if db, err := DecodeDB(raw); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("id counter %d over 3 rows: DecodeDB = %v, %v, want ErrBadSnapshot", next, db, err)
		}
	}

	// Nine INT columns over 65 536 ids need 15 live rows to back their
	// slots; 14 do not. Dump and DecodeDB draw the line at the same row.
	wide := NewDB()
	wr := wide.MustCreate(MustSchema("W", intCols(9)...))
	for i := 0; i < 1<<16; i++ {
		wr.Insert(intRow(9))
	}
	for id := RowID(16); id < 1<<16; id++ {
		wr.Delete(id)
	}
	refused := 0
	for id := RowID(15); id >= 12; id-- {
		wr.Delete(id)
		_, decodeErr := DecodeDB(undumped(t, wide))
		dumpErr := wide.Dump(io.Discard)
		if (decodeErr == nil) != (dumpErr == nil) {
			t.Fatalf("%d live rows over %d ids: DecodeDB says %v, Dump says %v", wr.Len(), wr.n, decodeErr, dumpErr)
		}
		if decodeErr != nil {
			if !errors.Is(decodeErr, ErrBadSnapshot) {
				t.Fatalf("%d live rows: DecodeDB = %v, want ErrBadSnapshot", wr.Len(), decodeErr)
			}
			refused++
		}
		if wantRefused := wr.Len() < 15; (decodeErr != nil) != wantRefused {
			t.Errorf("%d live rows over %d ids: refused %v, want %v", wr.Len(), wr.n, decodeErr != nil, wantRefused)
		}
	}
	if refused == 0 || refused == 4 {
		t.Errorf("%d of 4 worlds refused: the line was not crossed", refused)
	}
}

// intCols returns k INT columns, C0 to C(k-1).
func intCols(k int) []Column {
	cols := make([]Column, k)
	for i := range cols {
		cols[i] = Column{"C" + strconv.Itoa(i), TInt}
	}
	return cols
}

func intRow(k int) Tuple {
	row := make(Tuple, k)
	for i := range row {
		row[i] = Int(int64(i))
	}
	return row
}

// columnarSeeds are worlds whose columnar encodings seed FuzzReadDB: the
// tombstoned relation of TestReadDBBoundsTombstones, a FLOAT column
// holding an int and a negative zero, a BOOL column, an empty relation,
// and eight INT columns over 64 ids, all deleted, which checkSlots admits
// with nothing to spare.
func columnarSeeds(t testing.TB) []*DB {
	t.Helper()
	floats := NewDB()
	fr := floats.MustCreate(MustSchema("F", Column{"X", TFloat}))
	for _, v := range []Value{Int(1), Float(math.Copysign(0, -1)), Float(2.5), Int(-3)} {
		fr.Insert(Tuple{v})
	}
	fr.Delete(2)
	bools := NewDB()
	br := bools.MustCreate(MustSchema("B", Column{"OK", TBool}, Column{"N", TInt}))
	for i := 0; i < 70; i++ {
		br.Insert(Tuple{Bool(i%3 == 0), Int(int64(i))})
	}
	empty := NewDB()
	empty.MustCreate(MustSchema("E", Column{"S", TString}, Column{"X", TFloat}))
	eight := NewDB()
	er := eight.MustCreate(MustSchema("G", intCols(8)...))
	for i := 0; i < 64; i++ {
		er.Insert(intRow(8))
		er.Delete(RowID(i))
	}
	return []*DB{tombstoned(t, 70_000), floats, bools, empty, eight}
}

// columnar assembles a one-relation columnar snapshot by hand: the
// relation header, then parts as they are (see sec).
func columnar(name string, cols []Column, next, live uint64, parts ...[]byte) []byte {
	b := binary.AppendUvarint([]byte(columnarMagic), 1)
	b = appendStr(b, name)
	b = binary.AppendUvarint(b, uint64(len(cols)))
	for _, c := range cols {
		b = append(appendStr(b, c.Name), byte(c.Type))
	}
	b = binary.AppendUvarint(b, next)
	b = binary.AppendUvarint(b, live)
	for _, p := range parts {
		b = append(b, p...)
	}
	return b
}

// twice turns a one-relation snapshot into one that holds its relation
// twice.
func twice(one []byte) []byte {
	rel := one[len(columnarMagic)+1:]
	return append(append(binary.AppendUvarint([]byte(columnarMagic), 2), rel...), rel...)
}

func appendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// sec frames b as a section.
func sec(b []byte) []byte { return append(binary.AppendUvarint(nil, uint64(len(b))), b...) }

func le64(xs ...uint64) []byte {
	var b []byte
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint64(b, x)
	}
	return b
}

func le32(xs ...uint32) []byte {
	var b []byte
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint32(b, x)
	}
	return b
}

func dictSection(strs ...string) []byte {
	b := binary.AppendUvarint(nil, uint64(len(strs)))
	for _, s := range strs {
		b = appendStr(b, s)
	}
	return b
}

// TestReadDBBoundsDeclaredLengths: a columnar snapshot that declares more
// rows, columns, strings or bytes than the input holds is refused before
// anything is sized by the declaration, and so is one whose columns would
// spread a small liveness bitmap over far more slot bytes than the input
// holds.
func TestReadDBBoundsDeclaredLengths(t *testing.T) {
	const big = 1 << 20 // rows whose liveness bitmap the input does hold
	full := bytes.Repeat([]byte{0xff}, big/8)
	declare := func(n uint64, b []byte) []byte { return append(binary.AppendUvarint(nil, n), b...) }
	intCol := []Column{{"K", TInt}}
	strCol := []Column{{"V", TString}}
	cases := map[string][]byte{
		"more relations than bytes": binary.AppendUvarint([]byte(columnarMagic), 1<<40),
		"more columns than bytes":   binary.AppendUvarint(appendStr(binary.AppendUvarint([]byte(columnarMagic), 1), "R"), 1<<40),
		"bitmap past the input":     columnar("R", intCol, 1<<40, 1<<36, declare(1<<37, le64(1))),
		"payload past the input":    columnar("R", intCol, big, big, sec(full), declare(8*big, le64(1, 2))),
		"dictionary past the input": columnar("R", strCol, big, big, sec(full), declare(1<<50, dictSection("a"))),
		"more strings than bytes":   columnar("R", strCol, big, big, sec(full), sec(binary.AppendUvarint(nil, 1<<40))),
		"codes past the input":      columnar("R", strCol, big, big, sec(full), sec(dictSection("a")), declare(4*big, le32(0))),
		"section longer than want":  columnar("R", intCol, 1, 1, sec(le64(1)), sec(le64(5, 6))),
		"200 columns of tombstones": columnar("R", intCols(200), 1<<16, 0,
			append(sec(make([]byte, 1<<13)), bytes.Repeat(sec(nil), 200)...)),
	}
	for name, raw := range cases {
		var db *DB
		var err error
		_, allocated := measure(func() { db, err = DecodeDB(raw) })
		if !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: DecodeDB = %v, %v, want ErrBadSnapshot", name, db, err)
		}
		if limit := 2*len(raw) + 64<<10; allocated > float64(limit) {
			t.Errorf("%s: decoding %d bytes allocated %v, bound %d", name, len(raw), allocated, limit)
		}
	}
}

// TestReadDBRejectsMalformedWorlds: a columnar snapshot whose catalog or
// row bookkeeping describes no world is refused by ReadDB: an unnamed or
// repeated relation, a column unnamed, repeated or of no type, a live count
// over the id counter, or a counter far past the rows the input holds.
func TestReadDBRejectsMalformedWorlds(t *testing.T) {
	intCol := []Column{{"K", TInt}}
	cases := map[string][]byte{
		"column of no type":     columnar("R", []Column{{"K", 7}}, 0, 0, sec(nil)),
		"unnamed column":        columnar("R", []Column{{"", TInt}}, 0, 0, sec(nil), sec(nil)),
		"unnamed relation":      columnar("", intCol, 0, 0, sec(nil), sec(nil)),
		"duplicate relation":    twice(columnar("R", intCol, 0, 0, sec(nil), sec(nil))),
		"duplicate column":      columnar("R", []Column{{"K", TInt}, {"K", TInt}}, 0, 0, sec(nil), sec(nil), sec(nil)),
		"more live than ids":    columnar("R", intCol, 1, 2, sec(le64(1)), sec(le64(1, 2))),
		"counter far past rows": columnar("R", intCol, 1<<40, 0, sec(nil)),
	}
	for name, raw := range cases {
		if db, err := ReadDB(bytes.NewReader(raw)); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: ReadDB = %v, %v, want ErrBadSnapshot", name, db, err)
		}
	}
}

// TestReadDBRejectsMalformedColumns: a columnar snapshot whose sections
// frame correctly but whose column payloads hold no world is refused.
func TestReadDBRejectsMalformedColumns(t *testing.T) {
	intCol := []Column{{"K", TInt}}
	strCol := []Column{{"V", TString}}
	cases := map[string][]byte{
		"popcount over live":     columnar("R", intCol, 2, 1, sec(le64(0b11)), sec(le64(1))),
		"bit past the counter":   columnar("R", intCol, 2, 1, sec(le64(0b100)), sec(le64(1))),
		"bool out of range":      columnar("R", []Column{{"B", TBool}}, 1, 1, sec(le64(1)), sec(le64(2))),
		"int bit past the rows":  columnar("R", []Column{{"X", TFloat}}, 1, 1, sec(le64(1)), sec(le64(0)), sec(le64(0b10))),
		"int bit on a tombstone": columnar("R", []Column{{"X", TFloat}}, 2, 1, sec(le64(0b10)), sec(le64(0)), sec(le64(0b11))),
		"code past the dict":     columnar("R", strCol, 1, 1, sec(le64(1)), sec(dictSection("a")), sec(le32(1))),
		"string twice":           columnar("R", strCol, 1, 1, sec(le64(1)), sec(dictSection("a", "a")), sec(le32(1))),
		"bytes after the dict":   columnar("R", strCol, 1, 1, sec(le64(1)), sec(append(dictSection("a"), 0)), sec(le32(0))),
		"bytes after the world":  append(columnar("R", intCol, 1, 1, sec(le64(1)), sec(le64(1))), 0),
	}
	for name, raw := range cases {
		if db, err := DecodeDB(raw); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: DecodeDB = %v, %v, want ErrBadSnapshot", name, db, err)
		}
	}
	// The same framing with the payloads in range is a world.
	db, err := DecodeDB(columnar("R", strCol, 3, 2, sec(le64(0b101)), sec(dictSection("a", "b")), sec(le32(1, 0))))
	if err != nil {
		t.Fatal(err)
	}
	r, _ := db.Relation("R")
	if v, _ := r.GetCol(2, 0); r.Len() != 2 || r.Has(1) || v.AsString() != "a" {
		t.Errorf("decoded %d rows, row 1 present %v, row 2 = %v", r.Len(), r.Has(1), v)
	}
}

// decodeAllocBound is what decoding n bytes may allocate: slotRatio bytes
// of slot vector per input byte (the format comment's bound), which also
// covers a dictionary string's and a column's constant cost, plus slack
// for the runtime's own bookkeeping.
func decodeAllocBound(n int) float64 { return slotRatio*float64(n) + 64<<10 }

// FuzzReadDB: whatever the bytes, DecodeDB returns a world or an error —
// no panic, and allocation within decodeAllocBound either way — and a
// world it returns is one Dump reproduces and Insert can extend.
func FuzzReadDB(f *testing.F) {
	var buf bytes.Buffer
	if err := snapshotDB(f).Dump(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Clone(buf.Bytes()))
	for _, db := range columnarSeeds(f) {
		buf.Reset()
		if err := db.Dump(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.Clone(buf.Bytes()))
	}
	// A dictionary carrying a string no row uses, which Dump never writes.
	f.Add(columnar("R", []Column{{"V", TString}}, 2, 2,
		sec(le64(0b11)), sec(dictSection("dead", "a", "b")), sec(le32(1, 2))))
	// Nine INT columns over 64 deleted ids: one column past what
	// checkSlots admits.
	f.Add(columnar("R", intCols(9), 64, 0, append(sec(le64(0)), bytes.Repeat(sec(nil), 9)...)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var db *DB
		var err error
		if _, allocated := measure(func() { db, err = DecodeDB(data) }); allocated > decodeAllocBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %v (err %v), bound %v", len(data), allocated, err, decodeAllocBound(len(data)))
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := db.Dump(&out); err != nil {
			t.Fatal(err)
		}
		back, err := ReadDB(&out)
		if err != nil {
			t.Fatalf("ReadDB rejects what Dump wrote of a world it accepted: %v", err)
		}
		assertDBEqual(t, db, back)
		for _, name := range db.Names() {
			r, _ := db.Relation(name)
			if r.Len() == 0 {
				continue
			}
			var first Tuple
			r.Scan(func(_ RowID, tu Tuple) bool { first = tu.Clone(); return false })
			want := RowID(r.n)
			if id, err := r.Insert(first); err != nil || id != want {
				t.Fatalf("%s: Insert = %d, %v, want id %d", name, id, err, want)
			}
			if got, ok := r.Get(want); !ok || !identical(got, first) {
				t.Fatalf("%s: inserted %v, read %v, %v", name, first, got, ok)
			}
		}
	})
}
