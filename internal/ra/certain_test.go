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

// TestPrepareSetsKeyFilters pins which join inputs Prepare filters: an
// input is filtered by the keys of the other input's scanned rows that
// pass the other input's evidence conjuncts, and only when that input is
// a leaf chain with such a conjunct and an evidence join key. Filters
// read the hidden marks, as Certain does, and no fingerprint changes.
func TestPrepareSetsKeyFilters(t *testing.T) {
	sel := func(alias string, preds ...Expr) Plan { return NewSelect(NewScan("TOKEN", alias), And(preds...)) }
	eq := func(alias, col string, v relstore.Value) Expr { return Eq(Col(C(alias, col)), Const(v)) }
	boston, org := eq("T1", "STRING", relstore.String("Boston")), eq("T1", "LABEL", relstore.String("B-ORG"))
	persons := sel("T2", eq("T2", "LABEL", relstore.String("B-PER")))
	on := func(col string) []EquiCond { return []EquiCond{{Left: C("T1", col), Right: C("T2", col)}} }
	query4 := func() Plan {
		return NewProject(NewJoin(sel("T1", boston, org), persons, on("DOC_ID"), nil), C("T2", "STRING"))
	}
	cases := []struct {
		name        string
		plan        Plan
		left, right string // "" for no filter
	}{
		{"Query 4", query4(), "", `DOC_ID of TOKEN T1 rows where (T1.STRING = "Boston")`},
		{"hidden join key", NewProject(NewJoin(sel("T1", boston), persons, on("LABEL"), nil), C("T2", "STRING")), "", ""},
		{"no evidence conjunct", NewProject(NewJoin(sel("T1", org), persons, on("DOC_ID"), nil), C("T2", "STRING")), "", ""},
		{"both sides", NewProject(NewJoin(sel("T1", boston), sel("T2", eq("T2", "STRING", relstore.String("Smith"))), on("DOC_ID"), nil), C("T2", "TOK_ID")),
			`DOC_ID of TOKEN T2 rows where (T2.STRING = "Smith")`, `DOC_ID of TOKEN T1 rows where (T1.STRING = "Boston")`},
		{"selection above a projection", NewProject(NewJoin(NewSelect(NewProject(NewScan("TOKEN", "T1"), C("T1", "DOC_ID"), C("T1", "STRING")), boston), persons, on("DOC_ID"), nil), C("T2", "STRING")), "", ""},
	}
	db := testDB(t)
	before, err := Prepare(db, query4())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DeclareHidden("TOKEN", 3); err != nil {
		t.Fatal(err)
	}
	str := func(f *KeyFilter) string {
		if f == nil {
			return ""
		}
		return f.String()
	}
	for _, c := range cases {
		b, err := Prepare(db, c.plan)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		j := b.Children[0]
		if got := [2]string{str(j.KeyFilters[0]), str(j.KeyFilters[1])}; got != [2]string{c.left, c.right} {
			t.Errorf("%s: key filters %q, want %q", c.name, got, [2]string{c.left, c.right})
		}
	}
	// Before LABEL was declared, it was evidence too.
	if got, want := str(before.Children[0].KeyFilters[1]), `DOC_ID of TOKEN T1 rows where (T1.STRING = "Boston") AND (T1.LABEL = "B-ORG")`; got != want {
		t.Errorf("Query 4 with no hidden column: right filter %q, want %q", got, want)
	}
	after, _ := Prepare(db, query4())
	if before.Fingerprint() != after.Fingerprint() {
		t.Error("the key filter moved Query 4's fingerprint")
	}
}
