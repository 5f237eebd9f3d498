package ivm

import (
	"math/rand"
	"testing"

	"factordb/internal/ra"
	"factordb/internal/relstore"
)

var labels = []string{"O", "B-PER", "I-PER", "B-ORG", "I-ORG", "B-LOC"}
var words = []string{"Clinton", "IBM", "Boston", "saw", "the", "Smith", "Corp"}

// buildTokenDB creates a TOKEN relation with n random rows.
func buildTokenDB(n int, seed int64) (*relstore.DB, *relstore.Relation, []relstore.RowID) {
	rng := rand.New(rand.NewSource(seed))
	db := relstore.NewDB()
	tok := db.MustCreate(relstore.MustSchema("TOKEN",
		relstore.Column{Name: "TOK_ID", Type: relstore.TInt},
		relstore.Column{Name: "DOC_ID", Type: relstore.TInt},
		relstore.Column{Name: "STRING", Type: relstore.TString},
		relstore.Column{Name: "LABEL", Type: relstore.TString},
	))
	ids := make([]relstore.RowID, n)
	for i := 0; i < n; i++ {
		id, err := tok.Insert(relstore.Tuple{
			relstore.Int(int64(i)),
			relstore.Int(int64(i / 8)),
			relstore.String(words[rng.Intn(len(words))]),
			relstore.String(labels[rng.Intn(len(labels))]),
		})
		if err != nil {
			panic(err)
		}
		ids[i] = id
	}
	return db, tok, ids
}

// flipLabel randomly flips one row's LABEL and records the change in d.
func flipLabel(rng *rand.Rand, tok *relstore.Relation, ids []relstore.RowID, d BaseDelta) {
	id := ids[rng.Intn(len(ids))]
	newLabel := labels[rng.Intn(len(labels))]
	old, _ := tok.Get(id)
	if err := tok.SetCol(id, 3, relstore.String(newLabel)); err != nil {
		panic(err)
	}
	cur, _ := tok.Get(id)
	if old.Equal(cur) {
		return // no-op flip: no delta
	}
	d.Add("TOKEN", old, -1)
	d.Add("TOKEN", cur, 1)
}

// checkAgainstFullEval drives a view with random flip batches and verifies
// that its maintained result matches a from-scratch evaluation after every
// batch. This is the oracle property that makes Algorithm 1 trustworthy.
func checkAgainstFullEval(t *testing.T, plan ra.Plan, seed int64, rows, batches, flipsPerBatch int) {
	t.Helper()
	db, tok, ids := buildTokenDB(rows, seed)
	bound, err := ra.Bind(db, plan)
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	view, err := NewView(bound)
	if err != nil {
		t.Fatalf("NewView: %v", err)
	}
	full, err := ra.Eval(bound)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if !view.Result().Equal(full) {
		t.Fatalf("initial view differs from full evaluation")
	}
	rng := rand.New(rand.NewSource(seed + 1))
	for b := 0; b < batches; b++ {
		d := NewBaseDelta()
		for f := 0; f < flipsPerBatch; f++ {
			flipLabel(rng, tok, ids, d)
		}
		view.Apply(d)
		full, err = ra.Eval(bound)
		if err != nil {
			t.Fatalf("Eval: %v", err)
		}
		if !view.Result().Equal(full) {
			t.Fatalf("batch %d: view diverged from full evaluation\nview: %v\nfull: %v",
				b, dump(view.Result()), dump(full))
		}
	}
}

func dump(b *ra.Bag) []string {
	var out []string
	for _, r := range b.Rows() {
		out = append(out, r.Tuple.String()+"#"+relstore.Int(r.N).String())
	}
	return out
}

func perSelect() ra.Plan {
	return ra.NewSelect(ra.NewScan("TOKEN", "T"),
		ra.Eq(ra.Col(ra.C("T", "LABEL")), ra.Const(relstore.String("B-PER"))))
}

func TestViewSelect(t *testing.T) {
	checkAgainstFullEval(t, perSelect(), 1, 64, 20, 5)
}

func TestViewSelectProject(t *testing.T) {
	// Query 1 of the paper.
	p := ra.NewProject(perSelect(), ra.C("T", "STRING"))
	checkAgainstFullEval(t, p, 2, 64, 20, 5)
}

func TestViewGlobalCount(t *testing.T) {
	// Query 2 of the paper.
	p := ra.NewGroupAgg(perSelect(), nil, ra.Agg{Fn: ra.FnCount, As: "CNT"})
	checkAgainstFullEval(t, p, 3, 64, 25, 3)
}

func TestViewGroupedCountIf(t *testing.T) {
	// The lowering of Query 3: per-doc conditional counts plus equality.
	counts := ra.NewGroupAgg(
		ra.NewScan("TOKEN", "T"),
		[]ra.ColRef{ra.C("T", "DOC_ID")},
		ra.Agg{Fn: ra.FnCountIf, Pred: ra.Eq(ra.Col(ra.C("T", "LABEL")), ra.Const(relstore.String("B-PER"))), As: "NPER"},
		ra.Agg{Fn: ra.FnCountIf, Pred: ra.Eq(ra.Col(ra.C("T", "LABEL")), ra.Const(relstore.String("B-ORG"))), As: "NORG"},
	)
	p := ra.NewProject(
		ra.NewSelect(counts, ra.Eq(ra.Col(ra.C("", "NPER")), ra.Col(ra.C("", "NORG")))),
		ra.C("T", "DOC_ID"),
	)
	checkAgainstFullEval(t, p, 4, 64, 25, 4)
}

// query3Plan is Query 3 as the SQL planner lowers it: every token joined
// to its document's conditional counts, kept where the counts agree.
func query3Plan() ra.Plan {
	counts := ra.NewGroupAgg(
		ra.NewScan("TOKEN", "T1"),
		[]ra.ColRef{ra.C("T1", "DOC_ID")},
		ra.Agg{Fn: ra.FnCountIf, Pred: ra.Eq(ra.Col(ra.C("T1", "LABEL")), ra.Const(relstore.String("B-PER"))), As: "NPER"},
		ra.Agg{Fn: ra.FnCountIf, Pred: ra.Eq(ra.Col(ra.C("T1", "LABEL")), ra.Const(relstore.String("B-ORG"))), As: "NORG"},
	)
	return ra.NewProject(
		ra.NewSelect(
			ra.NewJoin(ra.NewScan("TOKEN", "T"), counts,
				[]ra.EquiCond{{Left: ra.C("T", "DOC_ID"), Right: ra.C("T1", "DOC_ID")}}, nil),
			ra.Eq(ra.Col(ra.C("", "NPER")), ra.Col(ra.C("", "NORG")))),
		ra.C("T", "DOC_ID"),
	)
}

func TestViewQuery3(t *testing.T) {
	checkAgainstFullEval(t, query3Plan(), 6, 64, 25, 4)
}

// TestPrunedJoinSideKeepsKeyCounts is what column pruning buys a view:
// Query 3 reads only DOC_ID of its token side, so the join keeps one
// (DOC_ID, multiplicity) row per document instead of every token, and a
// label flip moves four rows through the join (−/+ on either side), not
// two per token of the document.
func TestPrunedJoinSideKeepsKeyCounts(t *testing.T) {
	const rows, perDoc = 64, 8 // buildTokenDB puts 8 tokens in a document
	db, tok, ids := buildTokenDB(rows, 9)
	bound, err := ra.Bind(db, query3Plan())
	if err != nil {
		t.Fatal(err)
	}
	view, err := NewView(bound)
	if err != nil {
		t.Fatal(err)
	}
	join := view.root.(*projectOp).child.(*selectOp).child.(*joinOp)
	if len(join.ls.buckets) != rows/perDoc {
		t.Fatalf("token side holds %d join keys, want one per document (%d)", len(join.ls.buckets), rows/perDoc)
	}
	for _, bucket := range join.ls.buckets {
		if len(bucket) != 1 {
			t.Fatalf("a document's token side holds %d rows, want 1", len(bucket))
		}
		for _, r := range bucket {
			if len(r.Tuple) != 1 || r.N != perDoc {
				t.Fatalf("token side row %v x%d, want (DOC_ID) x%d", r.Tuple, r.N, perDoc)
			}
		}
	}
	d := NewBaseDelta()
	rng := rand.New(rand.NewSource(10))
	for d.Empty() {
		flipLabel(rng, tok, ids, d)
	}
	emitted := 0
	join.apply(d, func(relstore.Tuple, int64) { emitted++ })
	if emitted > 4 {
		t.Errorf("one label flip moved %d rows through the join, want at most 4", emitted)
	}
}

func TestViewSelfJoin(t *testing.T) {
	// Query 4 of the paper: self-join through DOC_ID.
	boston := ra.NewSelect(ra.NewScan("TOKEN", "T1"), ra.And(
		ra.Eq(ra.Col(ra.C("T1", "STRING")), ra.Const(relstore.String("Boston"))),
		ra.Eq(ra.Col(ra.C("T1", "LABEL")), ra.Const(relstore.String("B-ORG"))),
	))
	persons := ra.NewSelect(ra.NewScan("TOKEN", "T2"),
		ra.Eq(ra.Col(ra.C("T2", "LABEL")), ra.Const(relstore.String("B-PER"))))
	p := ra.NewProject(
		ra.NewJoin(boston, persons,
			[]ra.EquiCond{{Left: ra.C("T1", "DOC_ID"), Right: ra.C("T2", "DOC_ID")}}, nil),
		ra.C("T2", "STRING"),
	)
	checkAgainstFullEval(t, p, 5, 48, 25, 4)
}

func TestViewJoinResidualFilter(t *testing.T) {
	p := ra.NewJoin(
		ra.NewScan("TOKEN", "T1"), ra.NewScan("TOKEN", "T2"),
		[]ra.EquiCond{{Left: ra.C("T1", "DOC_ID"), Right: ra.C("T2", "DOC_ID")}},
		ra.And(
			ra.Eq(ra.Col(ra.C("T1", "LABEL")), ra.Const(relstore.String("B-PER"))),
			ra.Cmp(ra.OpLt, ra.Col(ra.C("T1", "TOK_ID")), ra.Col(ra.C("T2", "TOK_ID"))),
		),
	)
	checkAgainstFullEval(t, p, 6, 32, 15, 3)
}

func TestViewCrossProduct(t *testing.T) {
	per := ra.NewProject(perSelect(), ra.C("T", "STRING"))
	org := ra.NewProject(
		ra.NewSelect(ra.NewScan("TOKEN", "U"),
			ra.Eq(ra.Col(ra.C("U", "LABEL")), ra.Const(relstore.String("B-ORG")))),
		ra.C("U", "STRING"))
	p := ra.NewCross(per, org)
	checkAgainstFullEval(t, p, 7, 24, 15, 3)
}

func TestViewMinMaxSumAvg(t *testing.T) {
	p := ra.NewGroupAgg(
		perSelect(),
		[]ra.ColRef{ra.C("T", "DOC_ID")},
		ra.Agg{Fn: ra.FnMin, Arg: ra.C("T", "TOK_ID"), As: "LO"},
		ra.Agg{Fn: ra.FnMax, Arg: ra.C("T", "TOK_ID"), As: "HI"},
		ra.Agg{Fn: ra.FnSum, Arg: ra.C("T", "TOK_ID"), As: "S"},
		ra.Agg{Fn: ra.FnAvg, Arg: ra.C("T", "TOK_ID"), As: "A"},
	)
	checkAgainstFullEval(t, p, 8, 64, 30, 4)
}

func TestViewGlobalMinOverEmptyable(t *testing.T) {
	// A global MIN whose population can empty out entirely: the output row
	// must vanish and reappear in step with the data.
	p := ra.NewGroupAgg(perSelect(), nil, ra.Agg{Fn: ra.FnMin, Arg: ra.C("T", "TOK_ID"), As: "LO"})
	checkAgainstFullEval(t, p, 9, 12, 40, 2)
}

// applyDiff applies d and returns the signed change it made to the
// view's answer.
func applyDiff(v *View, d BaseDelta) *ra.Bag {
	before := v.Result().Clone()
	v.Apply(d)
	diff := v.Result().Clone()
	diff.AddBag(before, -1)
	return diff
}

func TestEmptyDeltaIsNoOp(t *testing.T) {
	db, _, _ := buildTokenDB(16, 99)
	bound, _ := ra.Bind(db, perSelect())
	view, _ := NewView(bound)
	if dout := applyDiff(view, NewBaseDelta()); dout.Len() != 0 {
		t.Errorf("empty delta produced %d output changes", dout.Len())
	}
	if !NewBaseDelta().Empty() {
		t.Error("NewBaseDelta should be Empty")
	}
	d := NewBaseDelta()
	d.Add("TOKEN", relstore.Tuple{relstore.Int(1)}, 1)
	if d.Empty() {
		t.Error("non-empty delta reported Empty")
	}
}

func TestCancellingDeltaProducesNoChange(t *testing.T) {
	db, tok, ids := buildTokenDB(16, 7)
	bound, _ := ra.Bind(db, perSelect())
	view, _ := NewView(bound)
	// Flip a row away and back within one batch. A BaseDelta is a plain
	// row list (the change log nets by row identity before it fills one),
	// so the four rows stay; the operators' signed folding must cancel them.
	d := NewBaseDelta()
	id := ids[0]
	old, _ := tok.Get(id)
	oldLabel := old[3]
	tok.SetCol(id, 3, relstore.String("B-PER"))
	mid, _ := tok.Get(id)
	d.Add("TOKEN", old, -1)
	d.Add("TOKEN", mid, 1)
	tok.SetCol(id, 3, oldLabel)
	cur, _ := tok.Get(id)
	d.Add("TOKEN", mid, -1)
	d.Add("TOKEN", cur, 1)
	dout := applyDiff(view, d)
	if dout.Len() != 0 {
		t.Errorf("cancelling delta produced output changes: %v", dump(dout))
	}
}

// deleteRow removes one random surviving row from the base relation and
// records the pure deletion (no matching insertion) in d.
func deleteRow(rng *rand.Rand, tok *relstore.Relation, ids []relstore.RowID, d BaseDelta) []relstore.RowID {
	i := rng.Intn(len(ids))
	old, _ := tok.Get(ids[i])
	if err := tok.Delete(ids[i]); err != nil {
		panic(err)
	}
	d.Add("TOKEN", old, -1)
	return append(ids[:i], ids[i+1:]...)
}

// selfJoinPlan is Query 4's shape: persons joined to Boston orgs by doc.
func selfJoinPlan() ra.Plan {
	boston := ra.NewSelect(ra.NewScan("TOKEN", "T1"), ra.And(
		ra.Eq(ra.Col(ra.C("T1", "STRING")), ra.Const(relstore.String("Boston"))),
		ra.Eq(ra.Col(ra.C("T1", "LABEL")), ra.Const(relstore.String("B-ORG"))),
	))
	persons := ra.NewSelect(ra.NewScan("TOKEN", "T2"),
		ra.Eq(ra.Col(ra.C("T2", "LABEL")), ra.Const(relstore.String("B-PER"))))
	return ra.NewProject(
		ra.NewJoin(boston, persons,
			[]ra.EquiCond{{Left: ra.C("T1", "DOC_ID"), Right: ra.C("T2", "DOC_ID")}}, nil),
		ra.C("T2", "STRING"),
	)
}

// TestViewJoinUnderDeletions drives a join view with batches of pure
// tuple deletions — rows leaving the base relation outright, not label
// flips — until the relation empties, checking the maintained result
// against a from-scratch evaluation after every batch. Deletions shrink
// both join sides and must cancel previously matched pairs exactly.
func TestViewJoinUnderDeletions(t *testing.T) {
	db, tok, ids := buildTokenDB(64, 21)
	bound, err := ra.Bind(db, selfJoinPlan())
	if err != nil {
		t.Fatal(err)
	}
	view, err := NewView(bound)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	for len(ids) > 0 {
		d := NewBaseDelta()
		for f := 0; f < 5 && len(ids) > 0; f++ {
			ids = deleteRow(rng, tok, ids, d)
		}
		view.Apply(d)
		full, err := ra.Eval(bound)
		if err != nil {
			t.Fatal(err)
		}
		if !view.Result().Equal(full) {
			t.Fatalf("after %d deletions view diverged\nview: %v\nfull: %v",
				64-len(ids), dump(view.Result()), dump(full))
		}
	}
	if view.Result().Len() != 0 {
		t.Errorf("empty relation left a non-empty join view: %v", dump(view.Result()))
	}
}

// TestViewJoinMixedDeletesAndFlips interleaves deletions with label flips
// in the same delta batches, the regime an online store would produce.
func TestViewJoinMixedDeletesAndFlips(t *testing.T) {
	db, tok, ids := buildTokenDB(64, 23)
	bound, err := ra.Bind(db, selfJoinPlan())
	if err != nil {
		t.Fatal(err)
	}
	view, err := NewView(bound)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(24))
	for b := 0; b < 15; b++ {
		d := NewBaseDelta()
		for f := 0; f < 3; f++ {
			flipLabel(rng, tok, ids, d)
		}
		if len(ids) > 8 {
			ids = deleteRow(rng, tok, ids, d)
		}
		view.Apply(d)
		full, err := ra.Eval(bound)
		if err != nil {
			t.Fatal(err)
		}
		if !view.Result().Equal(full) {
			t.Fatalf("batch %d: view diverged\nview: %v\nfull: %v",
				b, dump(view.Result()), dump(full))
		}
	}
}

// TestViewGroupAggUnderDeletions checks grouped-aggregate maintenance
// when group populations shrink to empty via pure deletions (groups must
// vanish, MIN/MAX must re-derive from survivors).
func TestViewGroupAggUnderDeletions(t *testing.T) {
	db, tok, ids := buildTokenDB(48, 25)
	p := ra.NewGroupAgg(
		ra.NewScan("TOKEN", "T"),
		[]ra.ColRef{ra.C("T", "DOC_ID")},
		ra.Agg{Fn: ra.FnCount, As: "N"},
		ra.Agg{Fn: ra.FnMin, Arg: ra.C("T", "TOK_ID"), As: "LO"},
		ra.Agg{Fn: ra.FnMax, Arg: ra.C("T", "TOK_ID"), As: "HI"},
	)
	bound, err := ra.Bind(db, p)
	if err != nil {
		t.Fatal(err)
	}
	view, err := NewView(bound)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(26))
	for len(ids) > 0 {
		d := NewBaseDelta()
		for f := 0; f < 4 && len(ids) > 0; f++ {
			ids = deleteRow(rng, tok, ids, d)
		}
		view.Apply(d)
		full, err := ra.Eval(bound)
		if err != nil {
			t.Fatal(err)
		}
		if !view.Result().Equal(full) {
			t.Fatalf("with %d rows left view diverged\nview: %v\nfull: %v",
				len(ids), dump(view.Result()), dump(full))
		}
	}
	if view.Result().Len() != 0 {
		t.Errorf("empty relation left non-empty aggregate view: %v", dump(view.Result()))
	}
}

// TestViewLongRandomStream is a heavier randomized soak across all plan
// shapes at once.
func TestViewLongRandomStream(t *testing.T) {
	if testing.Short() {
		t.Skip("long soak")
	}
	plans := []ra.Plan{
		perSelect(),
		ra.NewProject(perSelect(), ra.C("T", "STRING")),
		ra.NewGroupAgg(perSelect(), nil, ra.Agg{Fn: ra.FnCount, As: "CNT"}),
	}
	for i, p := range plans {
		checkAgainstFullEval(t, p, int64(100+i), 128, 60, 7)
	}
}
