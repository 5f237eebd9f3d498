package ra

import (
	"strings"
	"testing"

	"factordb/internal/relstore"
)

// testDB builds a small TOKEN relation mirroring the paper's schema plus a
// DOC relation for join coverage.
func testDB(t *testing.T) *relstore.DB {
	t.Helper()
	db := relstore.NewDB()
	tok := db.MustCreate(relstore.MustSchema("TOKEN",
		relstore.Column{Name: "TOK_ID", Type: relstore.TInt},
		relstore.Column{Name: "DOC_ID", Type: relstore.TInt},
		relstore.Column{Name: "STRING", Type: relstore.TString},
		relstore.Column{Name: "LABEL", Type: relstore.TString},
	))
	rows := []struct {
		id, doc int64
		s, l    string
	}{
		{1, 1, "Clinton", "B-PER"},
		{2, 1, "visited", "O"},
		{3, 1, "IBM", "B-ORG"},
		{4, 1, "Boston", "B-ORG"},
		{5, 2, "Boston", "B-LOC"},
		{6, 2, "Smith", "B-PER"},
		{7, 2, "Smith", "B-PER"},
		{8, 2, "Corp", "I-ORG"},
	}
	for _, r := range rows {
		if _, err := tok.Insert(relstore.Tuple{
			relstore.Int(r.id), relstore.Int(r.doc), relstore.String(r.s), relstore.String(r.l),
		}); err != nil {
			t.Fatal(err)
		}
	}
	doc := db.MustCreate(relstore.MustSchema("DOC",
		relstore.Column{Name: "DOC_ID", Type: relstore.TInt},
		relstore.Column{Name: "YEAR", Type: relstore.TInt},
	))
	doc.Insert(relstore.Tuple{relstore.Int(1), relstore.Int(2004)})
	doc.Insert(relstore.Tuple{relstore.Int(2), relstore.Int(2005)})
	return db
}

func mustEval(t *testing.T, db *relstore.DB, p Plan) *Bag {
	t.Helper()
	b, err := Bind(db, p)
	if err != nil {
		t.Fatalf("Bind(%s): %v", p, err)
	}
	bag, err := Eval(b)
	if err != nil {
		t.Fatalf("Eval(%s): %v", p, err)
	}
	return bag
}

func TestScanBagCounts(t *testing.T) {
	db := testDB(t)
	bag := mustEval(t, db, NewScan("TOKEN", "T"))
	if bag.Size() != 8 {
		t.Errorf("scan size = %d, want 8", bag.Size())
	}
	// Rows 6 and 7 are identical tuples except TOK_ID, so all 8 are
	// distinct at the tuple level.
	if bag.Len() != 8 {
		t.Errorf("scan distinct = %d, want 8", bag.Len())
	}
}

func TestSelectProject(t *testing.T) {
	db := testDB(t)
	// Paper Query 1: SELECT STRING FROM TOKEN WHERE LABEL='B-PER'.
	p := NewProject(
		NewSelect(NewScan("TOKEN", "T"), Eq(Col(C("T", "LABEL")), Const(relstore.String("B-PER")))),
		C("T", "STRING"),
	)
	bag := mustEval(t, db, p)
	if bag.Len() != 2 { // Clinton, Smith
		t.Fatalf("distinct strings = %d, want 2", bag.Len())
	}
	if bag.Size() != 3 { // Smith appears twice: multiset projection
		t.Fatalf("total multiplicity = %d, want 3", bag.Size())
	}
	smithKey := relstore.Tuple{relstore.String("Smith")}.Key()
	if got := bag.Count(smithKey); got != 2 {
		t.Errorf("count(Smith) = %d, want 2", got)
	}
}

func TestComparisonOperators(t *testing.T) {
	db := testDB(t)
	cases := []struct {
		op   CmpOp
		want int64 // multiplicity of TOKEN rows with TOK_ID op 4
	}{
		{OpEq, 1}, {OpNe, 7}, {OpLt, 3}, {OpLe, 4}, {OpGt, 4}, {OpGe, 5},
	}
	for _, c := range cases {
		p := NewSelect(NewScan("TOKEN", "T"), Cmp(c.op, Col(C("T", "TOK_ID")), Const(relstore.Int(4))))
		bag := mustEval(t, db, p)
		if bag.Size() != c.want {
			t.Errorf("op %v: size = %d, want %d", c.op, bag.Size(), c.want)
		}
	}
}

func TestBooleanConnectives(t *testing.T) {
	db := testDB(t)
	per := Eq(Col(C("T", "LABEL")), Const(relstore.String("B-PER")))
	doc2 := Eq(Col(C("T", "DOC_ID")), Const(relstore.Int(2)))
	if got := mustEval(t, db, NewSelect(NewScan("TOKEN", "T"), And(per, doc2))).Size(); got != 2 {
		t.Errorf("AND size = %d, want 2", got)
	}
	if got := mustEval(t, db, NewSelect(NewScan("TOKEN", "T"), Or(per, doc2))).Size(); got != 5 {
		t.Errorf("OR size = %d, want 5", got)
	}
}

func TestJoinOnKey(t *testing.T) {
	db := testDB(t)
	p := NewJoin(
		NewScan("TOKEN", "T"), NewScan("DOC", "D"),
		[]EquiCond{{Left: C("T", "DOC_ID"), Right: C("D", "DOC_ID")}},
		nil,
	)
	bag := mustEval(t, db, p)
	if bag.Size() != 8 {
		t.Fatalf("join size = %d, want 8", bag.Size())
	}
	if got := bag.Schema.Arity(); got != 6 {
		t.Fatalf("join arity = %d, want 6", got)
	}
}

func TestSelfJoinQuery4Shape(t *testing.T) {
	db := testDB(t)
	// Paper Query 4: persons co-occurring with Boston/B-ORG in a document.
	boston := NewSelect(NewScan("TOKEN", "T1"), And(
		Eq(Col(C("T1", "STRING")), Const(relstore.String("Boston"))),
		Eq(Col(C("T1", "LABEL")), Const(relstore.String("B-ORG"))),
	))
	persons := NewSelect(NewScan("TOKEN", "T2"), Eq(Col(C("T2", "LABEL")), Const(relstore.String("B-PER"))))
	p := NewProject(
		NewJoin(boston, persons, []EquiCond{{Left: C("T1", "DOC_ID"), Right: C("T2", "DOC_ID")}}, nil),
		C("T2", "STRING"),
	)
	bag := mustEval(t, db, p)
	// Boston/B-ORG is only in doc 1; doc 1's person is Clinton.
	if bag.Len() != 1 {
		t.Fatalf("distinct = %d, want 1", bag.Len())
	}
	if got := bag.Count(relstore.Tuple{relstore.String("Clinton")}.Key()); got != 1 {
		t.Errorf("count(Clinton) = %d, want 1", got)
	}
}

func TestCrossProduct(t *testing.T) {
	db := testDB(t)
	bag := mustEval(t, db, NewJoin(NewScan("DOC", "A"), NewScan("DOC", "B"), nil, nil))
	if bag.Size() != 4 {
		t.Errorf("cross size = %d, want 4", bag.Size())
	}
}

func TestJoinResidualFilter(t *testing.T) {
	db := testDB(t)
	p := NewJoin(
		NewScan("TOKEN", "T"), NewScan("DOC", "D"),
		[]EquiCond{{Left: C("T", "DOC_ID"), Right: C("D", "DOC_ID")}},
		Eq(Col(C("D", "YEAR")), Const(relstore.Int(2004))),
	)
	bag := mustEval(t, db, p)
	if bag.Size() != 4 {
		t.Errorf("filtered join size = %d, want 4 (doc 1 tokens)", bag.Size())
	}
}

func TestGlobalCount(t *testing.T) {
	db := testDB(t)
	// Paper Query 2: SELECT COUNT(*) FROM TOKEN WHERE LABEL='B-PER'.
	p := NewGroupAgg(
		NewSelect(NewScan("TOKEN", "T"), Eq(Col(C("T", "LABEL")), Const(relstore.String("B-PER")))),
		nil,
		Agg{Fn: FnCount, As: "CNT"},
	)
	bag := mustEval(t, db, p)
	rows := bag.Rows()
	if len(rows) != 1 || rows[0].Tuple[0].AsInt() != 3 {
		t.Fatalf("COUNT rows = %v", rows)
	}
}

func TestGlobalCountEmptyInputEmitsZero(t *testing.T) {
	db := testDB(t)
	p := NewGroupAgg(
		NewSelect(NewScan("TOKEN", "T"), Eq(Col(C("T", "LABEL")), Const(relstore.String("NOPE")))),
		nil,
		Agg{Fn: FnCount, As: "CNT"},
	)
	rows := mustEval(t, db, p).Rows()
	if len(rows) != 1 || rows[0].Tuple[0].AsInt() != 0 {
		t.Fatalf("COUNT over empty input = %v, want single zero row", rows)
	}
}

func TestGroupedAggregates(t *testing.T) {
	db := testDB(t)
	p := NewGroupAgg(
		NewScan("TOKEN", "T"),
		[]ColRef{C("T", "DOC_ID")},
		Agg{Fn: FnCount, As: "N"},
		Agg{Fn: FnCountIf, Pred: Eq(Col(C("T", "LABEL")), Const(relstore.String("B-PER"))), As: "PERS"},
		Agg{Fn: FnMin, Arg: C("T", "TOK_ID"), As: "FIRST"},
		Agg{Fn: FnMax, Arg: C("T", "TOK_ID"), As: "LAST"},
		Agg{Fn: FnSum, Arg: C("T", "TOK_ID"), As: "SUMID"},
		Agg{Fn: FnAvg, Arg: C("T", "TOK_ID"), As: "AVGID"},
	)
	bag := mustEval(t, db, p)
	if bag.Len() != 2 {
		t.Fatalf("groups = %d, want 2", bag.Len())
	}
	byDoc := map[int64]relstore.Tuple{}
	bag.Each(func(_ string, r *BagRow) bool {
		byDoc[r.Tuple[0].AsInt()] = r.Tuple
		return true
	})
	d1 := byDoc[1]
	if d1[1].AsInt() != 4 || d1[2].AsInt() != 1 || d1[3].AsInt() != 1 || d1[4].AsInt() != 4 || d1[5].AsInt() != 10 {
		t.Errorf("doc1 aggregates = %v", d1)
	}
	if got := d1[6].AsFloat(); got != 2.5 {
		t.Errorf("doc1 AVG = %v, want 2.5", got)
	}
	d2 := byDoc[2]
	if d2[1].AsInt() != 4 || d2[2].AsInt() != 2 {
		t.Errorf("doc2 aggregates = %v", d2)
	}
}

func TestQuery3Lowering(t *testing.T) {
	db := testDB(t)
	// Per-doc equality of B-PER and B-ORG counts via COUNT_IF: this is the
	// planner's lowering of the paper's correlated-subquery Query 3.
	counts := NewGroupAgg(
		NewScan("TOKEN", "T"),
		[]ColRef{C("T", "DOC_ID")},
		Agg{Fn: FnCountIf, Pred: Eq(Col(C("T", "LABEL")), Const(relstore.String("B-PER"))), As: "NPER"},
		Agg{Fn: FnCountIf, Pred: Eq(Col(C("T", "LABEL")), Const(relstore.String("B-ORG"))), As: "NORG"},
	)
	p := NewProject(
		NewSelect(counts, Eq(Col(C("", "NPER")), Col(C("", "NORG")))),
		C("T", "DOC_ID"),
	)
	bag := mustEval(t, db, p)
	// doc1: 1 PER vs 2 ORG (no); doc2: 2 PER vs 0 ORG (no).
	if bag.Len() != 0 {
		t.Fatalf("docs with equal counts = %d, want 0", bag.Len())
	}
	// Flip row 4 (Boston/B-ORG in doc1) to O: doc1 becomes 1 vs 1.
	tok, _ := db.Relation("TOKEN")
	var target relstore.RowID = -1
	tok.Scan(func(id relstore.RowID, tu relstore.Tuple) bool {
		if tu[0].AsInt() == 4 {
			target = id
			return false
		}
		return true
	})
	if err := tok.SetCol(target, 3, relstore.String("O")); err != nil {
		t.Fatal(err)
	}
	bag = mustEval(t, db, p)
	if bag.Len() != 1 {
		t.Fatalf("after flip, docs with equal counts = %d, want 1", bag.Len())
	}
}

func TestBindErrors(t *testing.T) {
	db := testDB(t)
	cases := []struct {
		name string
		p    Plan
		frag string
	}{
		{"unknown table", NewScan("NOPE", ""), "unknown relation"},
		{"unknown column", NewSelect(NewScan("TOKEN", "T"), Eq(Col(C("T", "NOPE")), Const(relstore.Int(1)))), "unknown column"},
		{"type mismatch", NewSelect(NewScan("TOKEN", "T"), Eq(Col(C("T", "LABEL")), Const(relstore.Int(1)))), "cannot compare"},
		{"empty projection", NewProject(NewScan("TOKEN", "T")), "no columns"},
		{"dup alias join", NewJoin(NewScan("TOKEN", "T"), NewScan("TOKEN", "T"), nil, nil), "distinct aliases"},
		{"sum non-numeric", NewGroupAgg(NewScan("TOKEN", "T"), nil, Agg{Fn: FnSum, Arg: C("T", "LABEL"), As: "S"}), "non-numeric"},
		{"agg missing name", NewGroupAgg(NewScan("TOKEN", "T"), nil, Agg{Fn: FnCount}), "missing output name"},
		{"countif missing pred", NewGroupAgg(NewScan("TOKEN", "T"), nil, Agg{Fn: FnCountIf, As: "X"}), "missing predicate"},
		{"no aggs", NewGroupAgg(NewScan("TOKEN", "T"), nil), "no aggregates"},
		{"ambiguous unqualified", NewSelect(
			NewJoin(NewScan("TOKEN", "T"), NewScan("DOC", "D"),
				[]EquiCond{{Left: C("T", "DOC_ID"), Right: C("D", "DOC_ID")}}, nil),
			Eq(Col(C("", "DOC_ID")), Const(relstore.Int(1)))), "ambiguous"},
	}
	for _, c := range cases {
		_, err := Bind(db, c.p)
		if err == nil {
			t.Errorf("%s: Bind succeeded, want error containing %q", c.name, c.frag)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.frag)
		}
	}
}

func TestUnqualifiedResolution(t *testing.T) {
	db := testDB(t)
	// STRING is unique in TOKEN, so unqualified use is fine.
	p := NewSelect(NewScan("TOKEN", "T"), Eq(Col(C("", "STRING")), Const(relstore.String("Boston"))))
	if got := mustEval(t, db, p).Size(); got != 2 {
		t.Errorf("unqualified select size = %d, want 2", got)
	}
}

func TestBagAlgebra(t *testing.T) {
	sch := &RowSchema{Cols: []OutCol{{Ref: C("", "x"), Type: relstore.TInt}}}
	b := NewBag(sch)
	one := relstore.Tuple{relstore.Int(1)}
	b.Add(one, 2)
	b.Add(one, -2)
	if b.Len() != 0 {
		t.Error("zero-count row must be removed")
	}
	b.Add(one, 3)
	c := b.Clone()
	c.Add(one, 1)
	if b.Count(one.Key()) != 3 || c.Count(one.Key()) != 4 {
		t.Error("clone must be independent")
	}
	d := NewBag(sch)
	c.Each(func(k string, row *BagRow) bool {
		d.AddKeyed(k, row.Tuple, -row.N)
		return true
	})
	c.Each(func(k string, row *BagRow) bool {
		d.AddKeyed(k, row.Tuple, row.N)
		return true
	})
	if d.Len() != 0 {
		t.Error("bag minus itself must be empty")
	}
	if !b.Equal(b.Clone()) {
		t.Error("bag must equal its clone")
	}
	if b.Equal(c) {
		t.Error("bags with different counts must differ")
	}
}

// TestScanFilter: a top-level `column = constant` conjunct comes off a
// bound predicate in either operand order, the rest keeps its meaning,
// and anything else — other operators, column = column, a disjunction —
// is left where it is.
func TestScanFilter(t *testing.T) {
	sch := &RowSchema{Cols: []OutCol{
		{Ref: C("T", "ID"), Type: relstore.TInt},
		{Ref: C("T", "S"), Type: relstore.TString},
		{Ref: C("T", "N"), Type: relstore.TInt},
	}}
	id, s, n := Col(C("T", "ID")), Col(C("T", "S")), Col(C("T", "N"))
	five, x := Const(relstore.Int(5)), Const(relstore.String("x"))
	rows := []relstore.Tuple{
		{relstore.Int(5), relstore.String("x"), relstore.Int(5)},
		{relstore.Int(5), relstore.String("y"), relstore.Int(7)},
		{relstore.Int(6), relstore.String("x"), relstore.Int(6)},
	}
	cases := []struct {
		pred    Expr
		col     int
		hasRest bool
	}{
		{Eq(id, five), 0, false},
		{Eq(five, id), 0, false},
		{And(Cmp(OpLt, n, Const(relstore.Int(7))), Eq(x, s), Eq(id, five)), 1, true},
		{And(Eq(s, x), Cmp(OpGe, n, five)), 1, true},
		{Cmp(OpNe, id, five), -1, true},
		{Eq(id, n), -1, true},
		{Or(Eq(id, five), Eq(s, x)), -1, true},
		{And(Eq(id, n), Or(Eq(id, five), Eq(s, x))), -1, true},
	}
	if col, _, keep := ScanFilter(nil); col != -1 || keep != nil {
		t.Errorf("ScanFilter(nil) = column %d, rest present %v", col, keep != nil)
	}
	for _, c := range cases {
		pred, err := BindPredicate(sch, c.pred)
		if err != nil {
			t.Fatal(err)
		}
		col, val, keep := ScanFilter(pred)
		if col != c.col || (keep != nil) != c.hasRest {
			t.Errorf("%s: ScanFilter = column %d, rest present %v; want column %d, rest present %v", c.pred, col, keep != nil, c.col, c.hasRest)
		}
		for _, row := range rows {
			got := (col < 0 || row[col].Equal(val)) && (keep == nil || keep(row))
			if want := pred.Eval(row).AsBool(); got != want {
				t.Errorf("%s on %v: split predicate says %v, whole predicate %v", c.pred, row, got, want)
			}
		}
	}
}

func perPlan(alias string) Plan {
	return NewProject(
		NewSelect(NewScan("TOKEN", alias),
			Eq(Col(C(alias, "LABEL")), Const(relstore.String("B-PER")))),
		C(alias, "STRING"),
	)
}

func TestDistinctCollapses(t *testing.T) {
	db := testDB(t)
	bag := mustEval(t, db, NewDistinct(perPlan("A")))
	if bag.Size() != 2 || bag.Len() != 2 {
		t.Fatalf("distinct size/len = %d/%d, want 2/2", bag.Size(), bag.Len())
	}
	smith := relstore.Tuple{relstore.String("Smith")}.Key()
	if bag.Count(smith) != 1 {
		t.Errorf("distinct count(Smith) = %d, want 1", bag.Count(smith))
	}
}
