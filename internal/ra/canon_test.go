package ra

import (
	"strings"
	"testing"

	"factordb/internal/relstore"
)

// canonDB builds the catalog used by the bound-fingerprint tests.
func canonDB(t *testing.T) *relstore.DB {
	t.Helper()
	db := relstore.NewDB()
	tok := db.MustCreate(relstore.MustSchema("TOKEN",
		relstore.Column{Name: "TOK_ID", Type: relstore.TInt},
		relstore.Column{Name: "DOC_ID", Type: relstore.TInt},
		relstore.Column{Name: "STRING", Type: relstore.TString},
		relstore.Column{Name: "LABEL", Type: relstore.TString},
	))
	tok.Insert(relstore.Tuple{relstore.Int(1), relstore.Int(1), relstore.String("a"), relstore.String("B-PER")})
	return db
}

// canonKey renders p's canonical form: two plans canonicalize alike
// exactly when their keys are equal.
func canonKey(p Plan) string { return Canonicalize(p).String() }

func boundFP(t *testing.T, db *relstore.DB, p Plan) string {
	t.Helper()
	b, err := Bind(db, Canonicalize(p))
	if err != nil {
		t.Fatalf("Bind(%s): %v", p, err)
	}
	return b.Fingerprint()
}

func TestCanonicalizePredicateOrder(t *testing.T) {
	mk := func(terms ...Expr) Plan {
		return NewProject(
			NewSelect(NewScan("TOKEN", "T"), And(terms...)),
			C("T", "STRING"))
	}
	a := Cmp(OpEq, Col(C("T", "LABEL")), Const(relstore.String("B-PER")))
	b := Cmp(OpGt, Col(C("T", "TOK_ID")), Const(relstore.Int(3)))
	p1, p2 := mk(a, b), mk(b, a)
	if canonKey(p1) != canonKey(p2) {
		t.Errorf("conjunct order changed the fingerprint:\n%s\n%s",
			Canonicalize(p1), Canonicalize(p2))
	}
	db := canonDB(t)
	if boundFP(t, db, p1) != boundFP(t, db, p2) {
		t.Error("conjunct order changed the bound fingerprint")
	}
	// Nested AND flattens into the same canonical conjunction.
	p3 := mk(And(b, a))
	if canonKey(p1) != canonKey(p3) {
		t.Error("nested AND (redundant grouping) changed the fingerprint")
	}
	// Duplicate conjuncts are idempotent.
	p4 := mk(a, b, a)
	if canonKey(p1) != canonKey(p4) {
		t.Error("duplicate conjunct changed the fingerprint")
	}
}

func TestCanonicalizeAliasRenaming(t *testing.T) {
	mk := func(a1, a2 string) Plan {
		return NewProject(
			NewJoin(
				NewSelect(NewScan("TOKEN", a1), Eq(Col(C(a1, "LABEL")), Const(relstore.String("B-ORG")))),
				NewScan("TOKEN", a2),
				[]EquiCond{{Left: C(a1, "DOC_ID"), Right: C(a2, "DOC_ID")}},
				nil),
			C(a2, "STRING"))
	}
	p1, p2 := mk("T1", "T2"), mk("LEFT_SIDE", "RIGHT_SIDE")
	if canonKey(p1) != canonKey(p2) {
		t.Errorf("alias renaming changed the fingerprint:\n%s\n%s",
			Canonicalize(p1), Canonicalize(p2))
	}
	db := canonDB(t)
	if boundFP(t, db, p1) != boundFP(t, db, p2) {
		t.Error("alias renaming changed the bound fingerprint")
	}
	// Swapping which table plays which role is NOT a rename: distinct.
	p3 := mk("T2", "T1")
	if got := canonKey(p3); got != canonKey(p1) {
		// Same structure, different spelling of corresponding aliases —
		// positional renaming must still unify it.
		t.Errorf("positionally-corresponding aliases did not unify: %s", got)
	}
}

func TestCanonicalizeComparisonOrientation(t *testing.T) {
	lit := Const(relstore.String("B-PER"))
	col := Col(C("T", "LABEL"))
	mk := func(pred Expr) Plan {
		return NewProject(NewSelect(NewScan("TOKEN", "T"), pred), C("T", "STRING"))
	}
	if canonKey(mk(Cmp(OpEq, col, lit))) != canonKey(mk(Cmp(OpEq, lit, col))) {
		t.Error("LABEL='x' and 'x'=LABEL fingerprint differently")
	}
	n := Const(relstore.Int(3))
	id := Col(C("T", "TOK_ID"))
	if canonKey(mk(Cmp(OpGt, id, n))) != canonKey(mk(Cmp(OpLt, n, id))) {
		t.Error("TOK_ID>3 and 3<TOK_ID fingerprint differently")
	}
	// Orientation must not conflate genuinely different comparisons.
	if canonKey(mk(Cmp(OpGt, id, n))) == canonKey(mk(Cmp(OpLt, id, n))) {
		t.Error("TOK_ID>3 and TOK_ID<3 fingerprint identically")
	}
}

func TestCanonicalizeConstantFolding(t *testing.T) {
	pred := Eq(Col(C("T", "LABEL")), Const(relstore.String("B-PER")))
	base := NewSelect(NewScan("TOKEN", "T"), pred)
	// WHERE p AND 1=1 canonicalizes to WHERE p.
	folded := NewSelect(NewScan("TOKEN", "T"),
		And(pred, Eq(Const(relstore.Int(1)), Const(relstore.Int(1)))))
	if canonKey(base) != canonKey(folded) {
		t.Errorf("tautology was not folded away: %s", Canonicalize(folded))
	}
	// A Select whose whole predicate folds to TRUE drops the node.
	dropped := NewSelect(NewScan("TOKEN", "T"), Eq(Const(relstore.Int(1)), Const(relstore.Int(1))))
	if c := Canonicalize(dropped); strings.Contains(c.String(), "Select") {
		t.Errorf("TRUE-predicate Select survived canonicalization: %s", c)
	}
	// NOT folding and double negation.
	if canonKey(NewSelect(NewScan("TOKEN", "T"), Not(Not(pred)))) !=
		canonKey(base) {
		t.Error("double negation changed the fingerprint")
	}
	// A contradictory conjunct folds to constant FALSE but must keep the
	// Select (an always-empty selection is not the unfiltered scan).
	contra := NewSelect(NewScan("TOKEN", "T"),
		And(pred, Eq(Const(relstore.Int(1)), Const(relstore.Int(2)))))
	if canonKey(contra) == canonKey(NewScan("TOKEN", "T")) {
		t.Error("FALSE selection collapsed into its child")
	}
}

func TestCanonicalizeIsIdempotentAndPreservesSemantics(t *testing.T) {
	db := canonDB(t)
	p := NewProject(
		NewSelect(NewScan("TOKEN", "T"), And(
			Cmp(OpGe, Col(C("T", "TOK_ID")), Const(relstore.Int(1))),
			Eq(Const(relstore.String("B-PER")), Col(C("T", "LABEL"))),
		)),
		C("T", "STRING"))
	c1 := Canonicalize(p)
	c2 := Canonicalize(c1)
	if c1.String() != c2.String() {
		t.Errorf("not idempotent:\n%s\n%s", c1, c2)
	}
	for _, plan := range []Plan{p, c1} {
		b, err := Bind(db, plan)
		if err != nil {
			t.Fatalf("Bind(%s): %v", plan, err)
		}
		bag, err := Eval(b)
		if err != nil {
			t.Fatalf("Eval(%s): %v", plan, err)
		}
		if bag.Size() != 1 {
			t.Errorf("plan %s answered %d rows, want 1", plan, bag.Size())
		}
	}
}

func TestFingerprintDistinguishesDifferentPlans(t *testing.T) {
	db := canonDB(t)
	sel := func(label string) Plan {
		return NewProject(
			NewSelect(NewScan("TOKEN", "T"), Eq(Col(C("T", "LABEL")), Const(relstore.String(label)))),
			C("T", "STRING"))
	}
	if canonKey(sel("B-PER")) == canonKey(sel("B-ORG")) {
		t.Error("different literals fingerprint identically")
	}
	if boundFP(t, db, sel("B-PER")) == boundFP(t, db, sel("B-ORG")) {
		t.Error("different literals share a bound fingerprint")
	}
	proj := func(col string) Plan {
		return NewProject(NewScan("TOKEN", "T"), C("T", col))
	}
	if boundFP(t, db, proj("STRING")) == boundFP(t, db, proj("LABEL")) {
		t.Error("different projections share a bound fingerprint")
	}
	// Every subtree exposes its own fingerprint, and a parent's differs
	// from its child's.
	b, err := Bind(db, Canonicalize(sel("B-PER")))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var walk func(*Bound)
	walk = func(n *Bound) {
		fp := n.Fingerprint()
		if !strings.HasPrefix(fp, "bfp1:") {
			t.Errorf("fingerprint %q missing version prefix", fp)
		}
		if seen[fp] {
			t.Errorf("distinct subtrees share fingerprint %s", fp)
		}
		seen[fp] = true
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(b)
	if len(seen) != 3 { // project / select / scan
		t.Errorf("walked %d distinct subtree fingerprints, want 3", len(seen))
	}
}

// TestCanonicalizePreservesBindErrors pins two validation properties of
// the single-alias qualifier-drop rule: a qualifier that never named the
// alias must keep failing at bind (canonicalization must not launder
// stale qualifiers into valid ones), and the reserved canonical scan
// name must be unreachable from SQL-folded identifiers.
func TestCanonicalizePreservesBindErrors(t *testing.T) {
	db := canonDB(t)
	// SELECT TOKEN.STRING FROM TOKEN T — qualifier names the table, not
	// the alias: invalid before canonicalization, must stay invalid.
	stale := NewProject(
		NewSelect(NewScan("TOKEN", "T"), Eq(Col(C("T", "LABEL")), Const(relstore.String("B-PER")))),
		C("TOKEN", "STRING"))
	if _, err := Bind(db, stale); err == nil {
		t.Fatal("pre-canonical stale qualifier bound — fixture is wrong")
	}
	if _, err := Bind(db, Canonicalize(stale)); err == nil {
		t.Error("canonicalization laundered a stale qualifier into a valid reference")
	}
}

// TestFingerprintNestedComparisonInjective pins rendering injectivity:
// a boolean comparison nested as an operand must not collide with its
// re-associated sibling (both would read "a = b = c" without parens).
func TestFingerprintNestedComparisonInjective(t *testing.T) {
	a := Col(C("T", "LABEL"))
	b := Col(C("T", "STRING"))
	c := Const(relstore.Bool(true))
	left := NewSelect(NewScan("TOKEN", "T"), Cmp(OpEq, Cmp(OpEq, a, b), c))
	right := NewSelect(NewScan("TOKEN", "T"), Cmp(OpEq, a, Cmp(OpEq, b, c)))
	if canonKey(left) == canonKey(right) {
		t.Errorf("re-associated nested comparisons share a fingerprint:\n%s\n%s",
			Canonicalize(left), Canonicalize(right))
	}
}

// TestBoundFingerprintUnifiesQualification pins the property the logical
// fingerprint cannot give: a qualified and an unqualified spelling of the
// same reference resolve to the same column position, so they share a
// bound fingerprint.
func TestBoundFingerprintUnifiesQualification(t *testing.T) {
	db := canonDB(t)
	qual := NewProject(
		NewSelect(NewScan("TOKEN", "T"), Eq(Col(C("T", "LABEL")), Const(relstore.String("B-PER")))),
		C("T", "STRING"))
	unqual := NewProject(
		NewSelect(NewScan("TOKEN", ""), Eq(Col(C("", "LABEL")), Const(relstore.String("B-PER")))),
		C("", "STRING"))
	if boundFP(t, db, qual) != boundFP(t, db, unqual) {
		t.Error("qualified and unqualified spellings of the same plan differ at the bound level")
	}
}
