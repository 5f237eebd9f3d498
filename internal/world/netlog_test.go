package world

import (
	"testing"

	"factordb/internal/relstore"
)

// pairDB builds PAIR(ID, TEXT, A, B) with A and B hidden, four rows, and
// returns it with a clone: the first world takes a batch of writes
// through its log, the clone only the batch's net change through its own.
func pairDB(t *testing.T) (walked, net *ChangeLog) {
	t.Helper()
	db := relstore.NewDB()
	rel := db.MustCreate(relstore.MustSchema("PAIR",
		relstore.Column{Name: "ID", Type: relstore.TInt},
		relstore.Column{Name: "TEXT", Type: relstore.TString},
		relstore.Column{Name: "A", Type: relstore.TString},
		relstore.Column{Name: "B", Type: relstore.TString},
	))
	for i, text := range []string{"w", "x", "y", "z"} {
		if _, err := rel.Insert(relstore.Tuple{relstore.Int(int64(i)), relstore.String(text), relstore.String("a0"), relstore.String("b0")}); err != nil {
			t.Fatal(err)
		}
	}
	for _, col := range []int{2, 3} {
		if err := db.DeclareHidden("PAIR", col); err != nil {
			t.Fatal(err)
		}
	}
	return NewChangeLog(db), NewChangeLog(db.Clone())
}

// set flips hidden column col of row id through log.
func set(t *testing.T, log *ChangeLog, id relstore.RowID, col int, v string) {
	t.Helper()
	f, err := log.Field("PAIR", col)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Set(id, relstore.String(v)); err != nil {
		t.Fatal(err)
	}
}

// update assigns the named columns of row id through log.
func update(t *testing.T, log *ChangeLog, id relstore.RowID, cols []int, vals ...string) {
	t.Helper()
	vs := make([]relstore.Value, len(vals))
	for i, v := range vals {
		vs[i] = relstore.String(v)
	}
	if err := log.UpdateFields(FieldRef{Rel: "PAIR", Row: id}, cols, vs); err != nil {
		t.Fatal(err)
	}
}

// sameDelta drains both logs and fails unless the deltas hold the same
// signed rows in the same order, tuple by tuple key-identical, read
// through ivm.Rows.Each.
func sameDelta(t *testing.T, walked, net *ChangeLog) {
	t.Helper()
	g, w := walked.signedRows(walked.Drain(), "PAIR"), net.signedRows(net.Drain(), "PAIR")
	if len(g) != len(w) {
		t.Fatalf("drained %d rows, the net change %d:\n got %v\nwant %v", len(g), len(w), g, w)
	}
	for i := range g {
		if g[i].N != w[i].N || !g[i].Tuple.Identical(w[i].Tuple) {
			t.Fatalf("row %d: drained %v × %d, the net change %v × %d", i, g[i].Tuple, g[i].N, w[i].Tuple, w[i].N)
		}
	}
}

// TestFlipThenUpdate: a row flipped and then UPDATEd on an evidence column
// in the same batch drains as one change from its first tuple — hidden
// value as it was before the flip — to its last, in the order the rows
// were first touched.
func TestFlipThenUpdate(t *testing.T) {
	walked, net := pairDB(t)
	set(t, walked, 2, 2, "a1")
	set(t, walked, 1, 2, "a1")
	set(t, walked, 1, 2, "a2")
	update(t, walked, 1, []int{1}, "x'")

	update(t, net, 2, []int{2}, "a1")
	update(t, net, 1, []int{1, 2}, "x'", "a2")
	sameDelta(t, walked, net)
}

// TestFlipThenDelete: a row flipped and then DELETEd drains as the
// deletion of the tuple it started the batch with.
func TestFlipThenDelete(t *testing.T) {
	walked, net := pairDB(t)
	set(t, walked, 3, 3, "b1")
	set(t, walked, 0, 2, "a1")
	if err := walked.DeleteRow("PAIR", 3); err != nil {
		t.Fatal(err)
	}

	if err := net.DeleteRow("PAIR", 3); err != nil {
		t.Fatal(err)
	}
	update(t, net, 0, []int{2}, "a1")
	sameDelta(t, walked, net)
}

// TestTwoHiddenColumnsFlipped: flips of two hidden columns of one row in
// one batch, one of them flipped back, drain as one change carrying
// both columns' first values.
func TestTwoHiddenColumnsFlipped(t *testing.T) {
	walked, net := pairDB(t)
	set(t, walked, 1, 2, "a1")
	set(t, walked, 1, 3, "b1")
	set(t, walked, 2, 3, "b1")
	set(t, walked, 2, 2, "a1")
	set(t, walked, 2, 3, "b0")

	update(t, net, 1, []int{2, 3}, "a1", "b1")
	update(t, net, 2, []int{2}, "a1")
	sameDelta(t, walked, net)
}

// TestFlipBackIsSkipped: a row flipped A→B→A drains nothing beside a row
// whose flip stands.
func TestFlipBackIsSkipped(t *testing.T) {
	walked, net := pairDB(t)
	set(t, walked, 0, 2, "a1")
	set(t, walked, 3, 2, "a1")
	set(t, walked, 0, 2, "a0")

	update(t, net, 3, []int{2}, "a1")
	sameDelta(t, walked, net)
	if d := walked.Drain(); d["PAIR"].Len() != 0 {
		t.Errorf("a second Drain drained %v", d["PAIR"])
	}
}

// TestDiscardThenDrain: Discard drops the pending delta unread, so the
// next Drain yields only the changes made after it, and each call closes
// one epoch.
func TestDiscardThenDrain(t *testing.T) {
	walked, net := pairDB(t)
	set(t, walked, 0, 2, "a1")
	update(t, walked, 1, []int{1}, "x'")
	if _, err := walked.Insert("PAIR", relstore.Tuple{relstore.Int(4), relstore.String("v"), relstore.String("a0"), relstore.String("b0")}); err != nil {
		t.Fatal(err)
	}
	walked.Discard()
	if e := walked.Epoch(); e != 1 {
		t.Fatalf("Epoch after Discard = %d, want 1", e)
	}
	set(t, walked, 0, 2, "a2")
	set(t, walked, 2, 3, "b1")

	// The net world is brought to the walked one's state at Discard
	// behind its log's back.
	rel, err := net.DB().Relation("PAIR")
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.SetCol(0, 2, relstore.String("a1")); err != nil {
		t.Fatal(err)
	}
	if err := rel.SetCol(1, 1, relstore.String("x'")); err != nil {
		t.Fatal(err)
	}
	if _, err := rel.Insert(relstore.Tuple{relstore.Int(4), relstore.String("v"), relstore.String("a0"), relstore.String("b0")}); err != nil {
		t.Fatal(err)
	}
	update(t, net, 0, []int{2}, "a2")
	update(t, net, 2, []int{3}, "b1")
	sameDelta(t, walked, net)
	if e := walked.Epoch(); e != 2 {
		t.Errorf("Epoch after Discard and Drain = %d, want 2", e)
	}
}
