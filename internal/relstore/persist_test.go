package relstore

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
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

// sameRow is Identical, except that it lets −0 stand for 0: gob leaves a
// zero-valued field out of the stream, and −0 == 0, so a snapshot does
// not keep the sign of a negative zero.
func sameRow(a, b Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].identical(b[i]) && !(a[i].kind == b[i].kind && a[i].Equal(b[i])) {
			return false
		}
	}
	return true
}

// assertDBEqual holds b to a: same relations, same rows under the same
// ids in the same scan order, and the same id for the next insert.
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
			if !ok || !sameRow(tu, other) {
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

// TestReadsParentCommitSnapshot: testdata/parent_dump.snap was written by
// Dump as it stood before the store went columnar — row maps, and an
// Indexes field naming the hash index TOKEN then had on LABEL. It decodes
// to the world built afresh here, and re-encodes without that field.
func TestReadsParentCommitSnapshot(t *testing.T) {
	raw, err := os.ReadFile("testdata/parent_dump.snap")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte("Indexes")) {
		t.Fatal("the fixture carries no Indexes field: not a snapshot of the old format")
	}
	back, err := ReadDB(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	want := snapshotDB(t)
	misc, _ := want.Relation("MISC")
	misc.Insert(Tuple{Int(7), Bool(true)})
	assertDBEqual(t, want, back)

	var again bytes.Buffer
	if err := back.Dump(&again); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(again.Bytes(), []byte("Indexes")) {
		t.Error("Dump still writes an Indexes field")
	}
	if grew := again.Len() - len(raw); grew > 0 {
		t.Errorf("snapshot grew by %d bytes over the old encoding of the same world", grew)
	}
}

// TestDumpGolden pins the columnar encoding: testdata/dump2.golden is
// Dump of snapshotDB. testdata/dump.golden, the gob encoding Dump wrote of
// the same world before, still decodes to it.
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
	old, err := os.ReadFile("testdata/dump.golden")
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadDB(bytes.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	assertDBEqual(t, snapshotDB(t), back)
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

func encodeWire(t testing.TB, rels ...wireRelation) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&wireDB{Relations: rels}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadDBRejectsMalformedWorlds: snapshots that are valid gob but
// describe no world a relation can hold are errors, not worlds with a
// row silently lost or an id waiting to be handed out twice.
func TestReadDBRejectsMalformedWorlds(t *testing.T) {
	cols := []Column{{"K", TInt}, {"V", TString}}
	row := func(k int64, v string) []wireValue {
		return []wireValue{{Kind: TInt, I: k}, {Kind: TString, S: v}}
	}
	rel := func(next RowID, ids []RowID, rows ...[]wireValue) wireRelation {
		return wireRelation{Name: "R", Cols: cols, NextID: next, RowIDs: ids, Rows: rows}
	}
	cases := map[string][]wireRelation{
		"negative id":             {rel(3, []RowID{-1, 0}, row(1, "a"), row(2, "b"))},
		"duplicate id":            {rel(3, []RowID{1, 1}, row(1, "a"), row(2, "b"))},
		"ids out of order":        {rel(3, []RowID{2, 1}, row(1, "a"), row(2, "b"))},
		"id at the counter":       {rel(2, []RowID{1, 2}, row(1, "a"), row(2, "b"))},
		"id past the counter":     {rel(0, []RowID{5}, row(1, "a"))},
		"negative counter":        {rel(-4, nil)},
		"counter far past rows":   {rel(1<<40, []RowID{0}, row(1, "a"))},
		"id far past the rows":    {rel(1<<40, []RowID{0, 1 << 39}, row(1, "a"), row(2, "b"))},
		"more ids than rows":      {rel(3, []RowID{0, 1}, row(1, "a"))},
		"more rows than ids":      {rel(3, []RowID{0}, row(1, "a"), row(2, "b"))},
		"short row":               {rel(3, []RowID{0}, row(1, "a")[:1])},
		"long row":                {rel(3, []RowID{0}, append(row(1, "a"), wireValue{Kind: TInt}))},
		"value of the wrong type": {rel(3, []RowID{0}, []wireValue{{Kind: TString, S: "1"}, {Kind: TString, S: "a"}})},
		"value of no type":        {rel(3, []RowID{0}, []wireValue{{Kind: 9}, {Kind: TString, S: "a"}})},
		"column of no type":       {{Name: "R", Cols: []Column{{"K", 7}}}},
		"duplicate column":        {{Name: "R", Cols: []Column{{"K", TInt}, {"K", TInt}}}},
		"unnamed column":          {{Name: "R", Cols: []Column{{"", TInt}}}},
		"unnamed relation":        {{Cols: cols}},
		"duplicate relation":      {rel(0, nil), rel(0, nil)},
	}
	for name, rels := range cases {
		db, err := ReadDB(bytes.NewReader(encodeWire(t, rels...)))
		if !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: ReadDB = %v, %v, want ErrBadSnapshot", name, db, err)
		}
	}
}

// TestReadDBBoundsTombstones: the ids a snapshot skips come back as
// tombstones of the one dense layout, and the relation behaves like any
// other afterwards; an id counter or a row id out of proportion to the
// rows present is refused before anything is sized by it, and Dump
// refuses to write what ReadDB would not take back.
func TestReadDBBoundsTombstones(t *testing.T) {
	one := func(k int64) [][]wireValue { return [][]wireValue{{{Kind: TInt, I: k}}} }
	const bound = snapshotSlack + 3*snapshotSpread // the ids three rows may span
	const last = bound - 2                         // leaves room for one Insert below
	raw := encodeWire(t, wireRelation{
		Name: "R", Cols: []Column{{"K", TInt}}, NextID: last + 1,
		RowIDs: []RowID{3, 5000, last},
		Rows:   append(append(one(30), one(31)...), one(32)...),
	})
	db, err := ReadDB(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
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
	var buf bytes.Buffer
	if err := db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertDBEqual(t, db, back)
	assertDBEqual(t, db, db.Clone())

	// One id further, or 2^55 ids further, is a header asking for memory
	// the rows do not account for.
	for _, next := range []RowID{bound + 1, 1 << 55, math.MaxInt64} {
		raw := encodeWire(t, wireRelation{
			Name: "R", Cols: []Column{{"K", TInt}}, NextID: next,
			RowIDs: []RowID{3, 5000, next - 1},
			Rows:   append(append(one(30), one(31)...), one(32)...),
		})
		if db, err := ReadDB(bytes.NewReader(raw)); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("id counter %d over 3 rows: ReadDB = %v, %v, want ErrBadSnapshot", next, db, err)
		}
	}

	// A world that deleted its way past the bound keeps its last readable
	// checkpoint: Dump fails instead of writing one ReadDB refuses.
	sparse := NewDB()
	sr, _ := sparse.Create(MustSchema("S", Column{"K", TInt}))
	for i := 0; i < snapshotSlack+snapshotSpread*10; i++ {
		sr.Insert(Tuple{Int(int64(i))})
	}
	for id := RowID(9); id < RowID(sr.n); id++ {
		sr.Delete(id)
	}
	if err := sparse.Dump(io.Discard); err == nil {
		t.Errorf("Dump wrote a relation of %d rows over %d ids", sr.Len(), sr.n)
	}
	sr.Insert(Tuple{Int(-1)})
	sr.Insert(Tuple{Int(-2)})
	buf.Reset()
	if err := sparse.Dump(&buf); err != nil {
		t.Fatalf("Dump of %d rows over %d ids: %v", sr.Len(), sr.n, err)
	}
	if back, err = ReadDB(&buf); err != nil {
		t.Fatal(err)
	}
	assertDBEqual(t, sparse, back)
}

// columnarSeeds are worlds whose columnar encodings seed FuzzReadDB: the
// tombstoned relation of TestReadDBBoundsTombstones, a FLOAT column
// holding an int and a negative zero, a BOOL column and an empty
// relation.
func columnarSeeds(t testing.TB) []*DB {
	t.Helper()
	one := func(k int64) [][]wireValue { return [][]wireValue{{{Kind: TInt, I: k}}} }
	const last = snapshotSlack + 3*snapshotSpread - 2
	tomb, err := ReadDB(bytes.NewReader(encodeWire(t, wireRelation{
		Name: "R", Cols: []Column{{"K", TInt}}, NextID: last + 1,
		RowIDs: []RowID{3, 5000, last},
		Rows:   append(append(one(30), one(31)...), one(32)...),
	})))
	if err != nil {
		t.Fatal(err)
	}
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
	return []*DB{tomb, floats, bools, empty}
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
// anything is sized by the declaration.
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

// TestReadDBRejectsMalformedColumns: a columnar snapshot whose sections
// frame correctly but hold no world is refused.
func TestReadDBRejectsMalformedColumns(t *testing.T) {
	intCol := []Column{{"K", TInt}}
	strCol := []Column{{"V", TString}}
	cases := map[string][]byte{
		"column of no type":      columnar("R", []Column{{"K", 7}}, 0, 0, sec(nil)),
		"duplicate column":       columnar("R", []Column{{"K", TInt}, {"K", TInt}}, 0, 0, sec(nil), sec(nil), sec(nil)),
		"more live than ids":     columnar("R", intCol, 1, 2, sec(le64(1)), sec(le64(1, 2))),
		"counter far past rows":  columnar("R", intCol, 1<<40, 0, sec(nil)),
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

// FuzzReadDB: whatever the bytes, ReadDB returns a world or an error —
// no panic, no allocation a header sizes beyond the density bound — and a
// world it returns is
// one Dump reproduces and Insert can extend.
func FuzzReadDB(f *testing.F) {
	fixture, err := os.ReadFile("testdata/parent_dump.snap")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	var buf bytes.Buffer
	if err := snapshotDB(f).Dump(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(encodeWire(f, wireRelation{Name: "R", Cols: []Column{{"X", TFloat}}, NextID: 100,
		RowIDs: []RowID{7, 99}, Rows: [][]wireValue{{{Kind: TInt, I: 1}}, {{Kind: TFloat, F: math.Copysign(0, -1)}}}}))
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
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := ReadDB(bytes.NewReader(data))
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
			if got, ok := r.Get(want); !ok || !sameRow(got, first) {
				t.Fatalf("%s: inserted %v, read %v, %v", name, first, got, ok)
			}
		}
	})
}
