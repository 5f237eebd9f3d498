package world

import (
	"errors"
	"strings"
	"testing"

	"factordb/internal/ra"
	"factordb/internal/relstore"
)

func mutTestDB(t *testing.T) *relstore.DB {
	t.Helper()
	db := relstore.NewDB()
	rel := db.MustCreate(relstore.MustSchema("CITY",
		relstore.Column{Name: "ID", Type: relstore.TInt},
		relstore.Column{Name: "NAME", Type: relstore.TString},
		relstore.Column{Name: "POP", Type: relstore.TInt},
	))
	for i, r := range []struct {
		name string
		pop  int64
	}{{"Boston", 7}, {"Cambridge", 1}, {"Worcester", 2}} {
		if _, err := rel.Insert(relstore.Tuple{
			relstore.Int(int64(i)), relstore.String(r.name), relstore.Int(r.pop),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestResolveAndApplyUpdate(t *testing.T) {
	db := mutTestDB(t)
	mut := &ra.Update{
		TableName: "CITY",
		Set:       []ra.SetClause{{Col: "NAME", Val: relstore.String("Cantabrigia")}},
		Where:     ra.Eq(ra.Col(ra.C("", "NAME")), ra.Const(relstore.String("Cambridge"))),
	}
	ops, err := ResolveMutation(db, mut)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 1 || ops[0].Kind != OpUpdate {
		t.Fatalf("ops = %+v, want one update", ops)
	}
	log := NewChangeLog(db)
	n, err := log.ApplyOps(ops)
	if err != nil || n != 1 {
		t.Fatalf("ApplyOps = (%d, %v), want (1, nil)", n, err)
	}
	// The delta records -old +new, exactly like a sampler flip.
	deleted, added := log.DeltaTables("CITY")
	if len(deleted) != 1 || len(added) != 1 {
		t.Fatalf("delta: %d deleted, %d added, want 1/1", len(deleted), len(added))
	}
	if deleted[0][1].AsString() != "Cambridge" || added[0][1].AsString() != "Cantabrigia" {
		t.Errorf("delta tuples: -%v +%v", deleted[0], added[0])
	}
	rel, _ := db.Relation("CITY")
	got, _ := rel.Get(1)
	if got[1].AsString() != "Cantabrigia" {
		t.Errorf("row 1 = %v", got)
	}
}

func TestResolveInsertDeleteAndDeterminism(t *testing.T) {
	db := mutTestDB(t)
	clone := db.Clone()

	ins := &ra.Insert{
		TableName: "CITY",
		Columns:   []string{"NAME", "POP", "ID"}, // any order, full coverage
		Rows:      [][]relstore.Value{{relstore.String("Springfield"), relstore.Int(3), relstore.Int(9)}},
	}
	del := &ra.Delete{
		TableName: "CITY",
		Alias:     "C",
		Where:     ra.Cmp(ra.OpLt, ra.Col(ra.C("C", "POP")), ra.Const(relstore.Int(3))),
	}

	apply := func(w *relstore.DB) *ChangeLog {
		log := NewChangeLog(w)
		for _, m := range []ra.Mutation{ins, del} {
			ops, err := ResolveMutation(w, m)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := log.ApplyOps(ops); err != nil {
				t.Fatal(err)
			}
		}
		return log
	}
	apply(db)
	apply(clone)

	// Identical op streams must leave clones with identical worlds,
	// including the RowIDs of inserted tuples (what makes fan-out safe).
	check := func(w *relstore.DB) relstore.RowID {
		rel, _ := w.Relation("CITY")
		if rel.Len() != 2 {
			t.Fatalf("relation has %d rows, want 2 (Boston + Springfield)", rel.Len())
		}
		var ids []relstore.RowID
		rel.ScanWhere(rel.Schema().ColIndex("NAME"), relstore.String("Springfield"), nil,
			func(id relstore.RowID, _ relstore.Tuple) bool {
				ids = append(ids, id)
				return true
			})
		if len(ids) != 1 {
			t.Fatalf("rows named Springfield = %v", ids)
		}
		return ids[0]
	}
	if a, b := check(db), check(clone); a != b {
		t.Errorf("inserted RowID diverged across clones: %d vs %d", a, b)
	}
}

func TestResolveValidation(t *testing.T) {
	db := mutTestDB(t)
	cases := []struct {
		name string
		mut  ra.Mutation
	}{
		{"unknown relation", &ra.Delete{TableName: "NOPE"}},
		{"unknown set column", &ra.Update{TableName: "CITY", Set: []ra.SetClause{{Col: "NOPE", Val: relstore.Int(1)}}}},
		{"set type mismatch", &ra.Update{TableName: "CITY", Set: []ra.SetClause{{Col: "POP", Val: relstore.String("x")}}}},
		{"duplicate assignment", &ra.Update{TableName: "CITY", Set: []ra.SetClause{
			{Col: "POP", Val: relstore.Int(1)}, {Col: "POP", Val: relstore.Int(2)}}}},
		{"insert arity", &ra.Insert{TableName: "CITY", Rows: [][]relstore.Value{{relstore.Int(1)}}}},
		{"insert type", &ra.Insert{TableName: "CITY", Rows: [][]relstore.Value{
			{relstore.String("x"), relstore.String("y"), relstore.Int(1)}}}},
		{"insert partial columns", &ra.Insert{TableName: "CITY", Columns: []string{"NAME"},
			Rows: [][]relstore.Value{{relstore.String("x")}}}},
		{"predicate unknown column", &ra.Delete{TableName: "CITY",
			Where: ra.Eq(ra.Col(ra.C("", "NOPE")), ra.Const(relstore.Int(1)))}},
		{"predicate foreign alias", &ra.Delete{TableName: "CITY", Alias: "C",
			Where: ra.Eq(ra.Col(ra.C("D", "POP")), ra.Const(relstore.Int(1)))}},
	}
	for _, c := range cases {
		if _, err := ResolveMutation(db, c.mut); err == nil {
			t.Errorf("%s: resolved without error", c.name)
		}
	}
}

// TestResolveRefusesHiddenColumns pins the write rule: with CITY.POP
// declared hidden, an UPDATE that sets it and an UPDATE or DELETE whose
// WHERE reads it fail to resolve, naming the column; an INSERT's POP is
// the new row's initial state, and a write over the other columns
// resolves as before.
func TestResolveRefusesHiddenColumns(t *testing.T) {
	db := mutTestDB(t)
	if err := db.DeclareHidden("CITY", 2); err != nil {
		t.Fatal(err)
	}
	big := ra.Cmp(ra.OpGt, ra.Col(ra.C("", "POP")), ra.Const(relstore.Int(1)))
	byID := ra.Eq(ra.Col(ra.C("", "ID")), ra.Const(relstore.Int(1)))
	for name, mut := range map[string]ra.Mutation{
		"set":          &ra.Update{TableName: "CITY", Set: []ra.SetClause{{Col: "POP", Val: relstore.Int(3)}}, Where: byID},
		"update where": &ra.Update{TableName: "CITY", Set: []ra.SetClause{{Col: "NAME", Val: relstore.String("x")}}, Where: big},
		"delete where": &ra.Delete{TableName: "CITY", Where: ra.And(byID, big)},
	} {
		if _, err := ResolveMutation(db, mut); err == nil || !strings.Contains(err.Error(), "CITY.POP") {
			t.Errorf("%s: resolve = %v, want an error naming CITY.POP", name, err)
		}
	}
	for name, mut := range map[string]ra.Mutation{
		"insert": &ra.Insert{TableName: "CITY", Rows: [][]relstore.Value{
			{relstore.Int(9), relstore.String("Lowell"), relstore.Int(4)}}},
		"update evidence": &ra.Update{TableName: "CITY", Set: []ra.SetClause{{Col: "NAME", Val: relstore.String("x")}}, Where: byID},
		"delete evidence": &ra.Delete{TableName: "CITY", Where: byID},
	} {
		if ops, err := ResolveMutation(db, mut); err != nil || len(ops) != 1 {
			t.Errorf("%s: resolve = %d ops, %v; want one op", name, len(ops), err)
		}
	}
}

func TestUpdateFieldsNoopAndMissingRow(t *testing.T) {
	db := mutTestDB(t)
	log := NewChangeLog(db)

	// Assigning the current value records nothing.
	err := log.UpdateFields(FieldRef{Rel: "CITY", Row: 0}, []int{1}, []relstore.Value{relstore.String("Boston")})
	if err != nil {
		t.Fatal(err)
	}
	if log.Pending() || log.Updates() != 0 {
		t.Error("no-op update recorded a delta")
	}

	if err := log.DeleteRow("CITY", 0); err != nil {
		t.Fatal(err)
	}
	err = log.UpdateFields(FieldRef{Rel: "CITY", Row: 0}, []int{1}, []relstore.Value{relstore.String("X")})
	if !errors.Is(err, relstore.ErrNotFound) {
		t.Errorf("update of deleted row = %v, want ErrNotFound", err)
	}
	// Also with no assignment at all: the row is looked up first.
	for _, row := range []relstore.RowID{0, 99, -1} {
		if err := log.UpdateFields(FieldRef{Rel: "CITY", Row: row}, nil, nil); !errors.Is(err, relstore.ErrNotFound) {
			t.Errorf("empty update of missing row %d = %v, want ErrNotFound", row, err)
		}
	}
	if err := log.DeleteRow("CITY", 0); !errors.Is(err, relstore.ErrNotFound) {
		t.Errorf("double delete = %v, want ErrNotFound", err)
	}
	// A field write to the deleted row surfaces the same sentinel — the
	// MCMC write-through path relies on it to skip vanished rows.
	if err := db.DeclareHidden("CITY", 1); err != nil {
		t.Fatal(err)
	}
	err = mustField(t, log, "CITY", 1).Set(0, relstore.String("Y"))
	if !errors.Is(err, relstore.ErrNotFound) {
		t.Errorf("field write to deleted row = %v, want ErrNotFound", err)
	}
}

// TestResolveOrderIsAscendingRowID pins the order of resolved ops: the
// predicate is evaluated inside the scan, and the op list — which
// every chain replays and the WAL records — is in ascending RowID order,
// with and without a predicate.
func TestResolveOrderIsAscendingRowID(t *testing.T) {
	db := relstore.NewDB()
	rel := db.MustCreate(relstore.MustSchema("N",
		relstore.Column{Name: "ID", Type: relstore.TInt},
		relstore.Column{Name: "PARITY", Type: relstore.TInt},
	))
	for i := 0; i < 500; i++ {
		if _, err := rel.Insert(relstore.Tuple{relstore.Int(int64(i)), relstore.Int(int64(i % 2))}); err != nil {
			t.Fatal(err)
		}
	}
	for id := relstore.RowID(0); id < 500; id += 7 { // leave gaps
		if err := rel.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	even := ra.Eq(ra.Col(ra.C("", "PARITY")), ra.Const(relstore.Int(0)))
	cases := []struct {
		name string
		mut  ra.Mutation
		want int
	}{
		{"update where", &ra.Update{TableName: "N", Set: []ra.SetClause{{Col: "PARITY", Val: relstore.Int(2)}}, Where: even}, 214},
		{"delete where", &ra.Delete{TableName: "N", Where: even}, 214},
		{"delete all", &ra.Delete{TableName: "N"}, 428},
	}
	for _, c := range cases {
		ops, err := ResolveMutation(db, c.mut)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(ops) != c.want {
			t.Errorf("%s: %d ops, want %d", c.name, len(ops), c.want)
		}
		for i := 1; i < len(ops); i++ {
			if ops[i-1].Row >= ops[i].Row {
				t.Fatalf("%s: op %d on row %d follows row %d", c.name, i, ops[i].Row, ops[i-1].Row)
			}
		}
	}
}
