package relstore

import (
	"bytes"
	"testing"
)

func snapshotDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	tok := db.MustCreate(tokenSchema(t))
	tok.CreateIndex("LABEL")
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

func assertDBEqual(t *testing.T, a, b *DB) {
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
		if ra.Len() != rb.Len() {
			t.Fatalf("%s: row counts differ: %d vs %d", an[i], ra.Len(), rb.Len())
		}
		ra.Scan(func(id RowID, tu Tuple) bool {
			other, ok := rb.Get(id)
			if !ok || !tu.Equal(other) {
				t.Fatalf("%s row %d: %v vs %v (ok=%v)", an[i], id, tu, other, ok)
			}
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

	// Indexes restored: lookup works and stays maintained.
	tok, _ := back.Relation("TOKEN")
	if !tok.HasIndex("LABEL") {
		t.Fatal("index not restored")
	}
	ids, _ := tok.Lookup("LABEL", String("B-PER"))
	if len(ids) != 5 {
		t.Fatalf("restored index lookup = %d rows, want 5", len(ids))
	}
	// RowID sequence continues past the snapshot (no collisions).
	before := tok.Len()
	if _, err := tok.Insert(Tuple{Int(1000), Int(0), String("new"), String("O")}); err != nil {
		t.Fatal(err)
	}
	if tok.Len() != before+1 {
		t.Fatal("insert after restore failed")
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
