package world

import (
	"strings"
	"testing"

	"factordb/internal/relstore"
)

func setup(t *testing.T) (*ChangeLog, relstore.RowID) {
	t.Helper()
	db := relstore.NewDB()
	tok := db.MustCreate(relstore.MustSchema("TOKEN",
		relstore.Column{Name: "TOK_ID", Type: relstore.TInt},
		relstore.Column{Name: "STRING", Type: relstore.TString},
		relstore.Column{Name: "LABEL", Type: relstore.TString},
	))
	id, err := tok.Insert(relstore.Tuple{relstore.Int(1), relstore.String("IBM"), relstore.String("O")})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DeclareHidden("TOKEN", 2); err != nil {
		t.Fatal(err)
	}
	return NewChangeLog(db), id
}

// TestFieldRefusesUndeclaredColumn: a model may bind a Field to a
// column its schema declares hidden and to no other, so every other
// layer can read the one declaration.
func TestFieldRefusesUndeclaredColumn(t *testing.T) {
	log, _ := setup(t)
	if _, err := log.Field("TOKEN", 1); err == nil || !strings.Contains(err.Error(), "TOKEN.STRING is not declared hidden") {
		t.Errorf("Field on evidence column STRING = %v, want a refusal naming it", err)
	}
	if _, err := log.Field("TOKEN", 2); err != nil {
		t.Errorf("Field on declared column LABEL = %v", err)
	}
}

func TestSetFieldRecordsDelta(t *testing.T) {
	log, id := setup(t)
	label := mustField(t, log, "TOKEN", 2)
	if err := label.Set(id, relstore.String("B-ORG")); err != nil {
		t.Fatal(err)
	}
	if !log.Pending() {
		t.Fatal("expected pending changes")
	}
	deleted, added := log.DeltaTables("TOKEN")
	if len(deleted) != 1 || len(added) != 1 {
		t.Fatalf("delta tables: %d deleted, %d added", len(deleted), len(added))
	}
	if deleted[0][2].AsString() != "O" || added[0][2].AsString() != "B-ORG" {
		t.Errorf("delta contents wrong: -%v +%v", deleted[0], added[0])
	}
	// The store reflects the new world.
	rel, err := log.DB().Relation("TOKEN")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := rel.GetCol(id, 2); v.AsString() != "B-ORG" {
		t.Errorf("field = %q", v.AsString())
	}
}

func TestNoOpWriteProducesNoDelta(t *testing.T) {
	log, id := setup(t)
	label := mustField(t, log, "TOKEN", 2)
	if err := label.Set(id, relstore.String("O")); err != nil {
		t.Fatal(err)
	}
	if log.Pending() {
		t.Error("no-op write produced a delta")
	}
	if log.Updates() != 0 {
		t.Errorf("Updates = %d", log.Updates())
	}
}

func TestFlipAndFlipBackCancels(t *testing.T) {
	log, id := setup(t)
	label := mustField(t, log, "TOKEN", 2)
	label.Set(id, relstore.String("B-ORG"))
	label.Set(id, relstore.String("O"))
	if log.Pending() {
		t.Error("round-trip flip should cancel to an empty net delta")
	}
	if log.Updates() != 2 {
		t.Errorf("Updates = %d, want 2", log.Updates())
	}
}

func TestDrainResets(t *testing.T) {
	log, id := setup(t)
	label := mustField(t, log, "TOKEN", 2)
	label.Set(id, relstore.String("B-ORG"))
	d := log.Drain()
	if rows := log.signedRows(d, "TOKEN"); len(rows) != 2 || rows[0].Tuple[2].AsString() != "O" || rows[1].Tuple[2].AsString() != "B-ORG" {
		t.Errorf("drained %v, want −O +B-ORG", rows)
	}
	if log.Pending() {
		t.Error("log must be empty after Drain")
	}
	del, add := log.DeltaTables("TOKEN")
	if del != nil || add != nil {
		t.Error("DeltaTables after drain should be empty")
	}
}

func TestErrors(t *testing.T) {
	log, id := setup(t)
	if _, err := log.Field("NOPE", 2); err == nil {
		t.Error("unknown relation: want error")
	}
	if _, err := log.Field("TOKEN", 99); err == nil {
		t.Error("bad column: want error")
	}
	label := mustField(t, log, "TOKEN", 2)
	if err := label.Set(999, relstore.String("x")); err == nil {
		t.Error("unknown row: want error")
	}
	if err := label.Set(id, relstore.Int(1)); err == nil {
		t.Error("type violation: want error")
	}
	if log.Pending() {
		t.Error("failed writes must not record deltas")
	}
}

// TestDrainRefillsItsRecords pins the other end of the lifetime rule: a
// drained delta's records sit in a slice of the log that the next Drain
// zeroes and refills, so a record kept past that point reads as the next
// batch's record or as zeros, never as a plausible stale change; and a
// tuple gathered from a flip record is scratch for the one call it is
// passed to.
func TestDrainRefillsItsRecords(t *testing.T) {
	log, id := setup(t)
	rel, err := log.DB().Relation("TOKEN")
	if err != nil {
		t.Fatal(err)
	}
	id2, err := rel.Insert(relstore.Tuple{relstore.Int(2), relstore.String("Boston"), relstore.String("O")})
	if err != nil {
		t.Fatal(err)
	}
	label := mustField(t, log, "TOKEN", 2)
	label.Set(id, relstore.String("B-ORG"))
	kept := log.Drain()["TOKEN"]
	if len(kept) != 1 || kept[0].Tuple != nil || kept[0].ID != id || kept[0].New.AsString() != "B-ORG" {
		t.Fatalf("drained records %+v, want row %d's flip to B-ORG", kept, id)
	}
	label.Set(id2, relstore.String("B-LOC"))
	if d := log.Drain(); &d["TOKEN"][0] != &kept[0] {
		t.Error("the next Drain did not refill the record slice")
	}
	if kept[0].ID != id2 || kept[0].Old.AsString() != "O" || kept[0].New.AsString() != "B-LOC" {
		t.Errorf("a record kept across the next Drain reads %+v, want the next batch's record", kept[0])
	}
	log.Drain()
	if r := kept[0]; r.Tuple != nil || r.ID != 0 || r.Old != (relstore.Value{}) || r.New != (relstore.Value{}) {
		t.Errorf("a record kept across a Drain of nothing reads %+v, want zeros", kept[0])
	}

	// A change that nets to nothing leaves nothing behind.
	label.Set(id, relstore.String("O"))
	label.Set(id, relstore.String("B-ORG"))
	if d := log.Drain(); d["TOKEN"].Len() != 0 {
		t.Errorf("round trip drained %v", d["TOKEN"])
	}

	// Each gathers every flip into the one scratch it is given.
	label.Set(id, relstore.String("B-PER"))
	label.Set(id2, relstore.String("O"))
	var first relstore.Tuple
	var copied relstore.Tuple
	log.Drain()["TOKEN"].Each(rel, nil, func(t relstore.Tuple, n int64) {
		if first == nil {
			first, copied = t, t.Clone()
		}
	})
	if copied[1].AsString() != "IBM" || copied[2].AsString() != "B-ORG" {
		t.Fatalf("first gathered row = %v, want IBM's row as it was", copied)
	}
	if first.Identical(copied) {
		t.Errorf("a gathered tuple kept past its call still reads %v: the next gather did not reuse the scratch", first)
	}
}

func TestEpochAdvancesPerDrain(t *testing.T) {
	log, id := setup(t)
	if log.Epoch() != 0 {
		t.Fatalf("fresh log epoch = %d, want 0", log.Epoch())
	}
	log.Drain()
	if log.Epoch() != 1 {
		t.Fatalf("epoch after one drain = %d, want 1", log.Epoch())
	}
	label := mustField(t, log, "TOKEN", 2)
	if err := label.Set(id, relstore.String("B-ORG")); err != nil {
		t.Fatal(err)
	}
	// Writes accumulate within an epoch; only Drain closes it.
	if log.Epoch() != 1 {
		t.Fatalf("epoch moved on a write: %d", log.Epoch())
	}
	log.Drain()
	if log.Epoch() != 2 {
		t.Fatalf("epoch after two drains = %d, want 2", log.Epoch())
	}
}
