package relstore

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"math"
	"os"
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
