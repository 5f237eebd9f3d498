package ra

import (
	"testing"

	"factordb/internal/relstore"
)

// TestPrepareMarksCertain pins the flag Prepare records on a bound
// statement: a tree is certain exactly when nothing in it reads a column
// its relation declares hidden — a predicate, a projection, a join or
// group key, an aggregate, or the root's own output — and a join input
// that carries a hidden column nobody reads is still certain. Before the
// declaration every plan is.
func TestPrepareMarksCertain(t *testing.T) {
	tok := func() Plan { return NewScan("TOKEN", "T") }
	label := Col(C("T", "LABEL"))
	bper := Const(relstore.String("B-PER"))
	byDoc := []EquiCond{{Left: C("T", "DOC_ID"), Right: C("D", "DOC_ID")}}
	cases := []struct {
		name    string
		plan    Plan
		certain bool
	}{
		{"evidence row", NewProject(NewSelect(tok(), Eq(Col(C("T", "TOK_ID")), Const(relstore.Int(1)))), C("T", "STRING")), true},
		{"count of every row", NewGroupAgg(tok(), nil, Agg{Fn: FnCount, As: "N"}), true},
		{"join reading evidence", NewProject(NewJoin(tok(), NewScan("DOC", "D"), byDoc, nil), C("T", "STRING"), C("D", "YEAR")), true},
		{"selection on the hidden column", NewProject(NewSelect(tok(), Eq(label, bper)), C("T", "STRING")), false},
		{"projection of the hidden column", NewProject(tok(), C("T", "LABEL")), false},
		{"bare scan", tok(), false},
		{"group key", NewGroupAgg(tok(), []ColRef{C("T", "LABEL")}, Agg{Fn: FnCount, As: "N"}), false},
		{"COUNT_IF", NewGroupAgg(tok(), nil, Agg{Fn: FnCountIf, Pred: Eq(label, bper), As: "N"}), false},
		{"join filter", NewProject(NewJoin(tok(), NewScan("DOC", "D"), byDoc, Eq(label, bper)), C("D", "YEAR")), false},
	}
	db := testDB(t)
	for _, c := range cases {
		if b, err := Prepare(db, c.plan); err != nil || !b.Certain {
			t.Errorf("%s before any declaration: certain=%v, %v; want certain", c.name, b != nil && b.Certain, err)
		}
	}
	if err := db.DeclareHidden("TOKEN", 3); err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		b, err := Prepare(db, c.plan)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if b.Certain != c.certain {
			t.Errorf("%s: certain=%v, want %v", c.name, b.Certain, c.certain)
		}
		if on, err := b.On(db); err != nil || on.Certain != c.certain {
			t.Errorf("%s: mounted copy certain=%v (%v), want %v", c.name, on != nil && on.Certain, err, c.certain)
		}
	}
}
