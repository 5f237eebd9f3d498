package world

import (
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
	return NewChangeLog(db), id
}

func TestSetFieldRecordsDelta(t *testing.T) {
	log, id := setup(t)
	ref := FieldRef{Rel: "TOKEN", Row: id, Col: 2}
	if err := log.SetField(ref, relstore.String("B-ORG")); err != nil {
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
	v, err := log.GetField(ref)
	if err != nil {
		t.Fatal(err)
	}
	if v.AsString() != "B-ORG" {
		t.Errorf("field = %q", v.AsString())
	}
}

func TestNoOpWriteProducesNoDelta(t *testing.T) {
	log, id := setup(t)
	ref := FieldRef{Rel: "TOKEN", Row: id, Col: 2}
	if err := log.SetField(ref, relstore.String("O")); err != nil {
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
	ref := FieldRef{Rel: "TOKEN", Row: id, Col: 2}
	log.SetField(ref, relstore.String("B-ORG"))
	log.SetField(ref, relstore.String("O"))
	if log.Pending() {
		t.Error("round-trip flip should cancel to an empty net delta")
	}
	if log.Updates() != 2 {
		t.Errorf("Updates = %d, want 2", log.Updates())
	}
}

func TestDrainResets(t *testing.T) {
	log, id := setup(t)
	ref := FieldRef{Rel: "TOKEN", Row: id, Col: 2}
	log.SetField(ref, relstore.String("B-ORG"))
	d := log.Drain()
	if d.Empty() {
		t.Error("drained delta should contain the change")
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
	if err := log.SetField(FieldRef{Rel: "NOPE", Row: id, Col: 2}, relstore.String("x")); err == nil {
		t.Error("unknown relation: want error")
	}
	if err := log.SetField(FieldRef{Rel: "TOKEN", Row: 999, Col: 2}, relstore.String("x")); err == nil {
		t.Error("unknown row: want error")
	}
	if err := log.SetField(FieldRef{Rel: "TOKEN", Row: id, Col: 99}, relstore.String("x")); err == nil {
		t.Error("bad column: want error")
	}
	if err := log.SetField(FieldRef{Rel: "TOKEN", Row: id, Col: 2}, relstore.Int(1)); err == nil {
		t.Error("type violation: want error")
	}
	if log.Pending() {
		t.Error("failed writes must not record deltas")
	}
	if _, err := log.GetField(FieldRef{Rel: "NOPE", Row: id, Col: 0}); err == nil {
		t.Error("GetField unknown relation: want error")
	}
	if _, err := log.GetField(FieldRef{Rel: "TOKEN", Row: 999, Col: 0}); err == nil {
		t.Error("GetField unknown row: want error")
	}
	if _, err := log.GetField(FieldRef{Rel: "TOKEN", Row: id, Col: 99}); err == nil {
		t.Error("GetField bad column: want error")
	}
}

// TestDrainedDeltaExpiresAtNextDrain pins the other end of the lifetime
// rule: the tuples of a drained delta sit in an arena of the log, and the
// next Drain zeroes it before reuse — a tuple kept past that point reads
// as zeros, never as a plausible stale row.
func TestDrainedDeltaExpiresAtNextDrain(t *testing.T) {
	log, id := setup(t)
	ref := FieldRef{Rel: "TOKEN", Row: id, Col: 2}
	log.SetField(ref, relstore.String("B-ORG"))
	kept := log.Drain()["TOKEN"][1].Tuple
	if kept[2].AsString() != "B-ORG" {
		t.Fatalf("drained +row = %v", kept)
	}
	copied := kept.Clone()
	log.Drain()
	zero := relstore.Tuple{relstore.Int(0), relstore.Int(0), relstore.Int(0)}
	if !kept.Identical(zero) {
		t.Errorf("a tuple kept across the next Drain reads %v, want zeros", kept)
	}
	if copied[2].AsString() != "B-ORG" {
		t.Errorf("a clone taken in time reads %v", copied)
	}
	// A change that nets to nothing leaves nothing behind in the arena.
	log.SetField(ref, relstore.String("O"))
	log.SetField(ref, relstore.String("B-ORG"))
	if d := log.Drain(); !d.Empty() {
		t.Errorf("round trip drained %v", d["TOKEN"])
	}
}
