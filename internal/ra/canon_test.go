package ra

import (
	"strings"
	"testing"

	"factordb/internal/relstore"
)

// canonDB builds the catalog used by the canonical-form tests.
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

func prepared(t *testing.T, db *relstore.DB, p Plan) *Bound {
	t.Helper()
	b, err := Prepare(db, p)
	if err != nil {
		t.Fatalf("Prepare(%s): %v", p, err)
	}
	return b
}

func boundFP(t *testing.T, db *relstore.DB, p Plan) string {
	t.Helper()
	return prepared(t, db, p).Fingerprint()
}

// canonSource renders the canonical plan Prepare binds p as.
func canonSource(t *testing.T, db *relstore.DB, p Plan) string {
	t.Helper()
	return prepared(t, db, p).Source.String()
}

func TestCanonicalPredicateOrder(t *testing.T) {
	db := canonDB(t)
	mk := func(terms ...Expr) Plan {
		return NewProject(
			NewSelect(NewScan("TOKEN", "T"), And(terms...)),
			C("T", "STRING"))
	}
	a := Eq(Col(C("T", "LABEL")), Const(relstore.String("B-PER")))
	b := Eq(Col(C("T", "TOK_ID")), Const(relstore.Int(3)))
	p1 := mk(a, b)
	want := canonSource(t, db, p1)
	// Terms sort by their bound encoding, where a column is its
	// position, not by their text: TOK_ID is column 0 and LABEL column
	// 3, though "LABEL" < "TOK_ID".
	if !strings.Contains(want, `Select[((T.TOK_ID = 3) AND (T.LABEL = "B-PER"))]`) {
		t.Errorf("conjuncts are not in column order: %s", want)
	}
	for name, p := range map[string]Plan{
		"reordered conjuncts": mk(b, a),
		"nested AND":          mk(And(b, a)),
		"duplicate conjunct":  mk(a, b, a),
	} {
		if got := canonSource(t, db, p); got != want {
			t.Errorf("%s: canonical plan\n%s\nwant\n%s", name, got, want)
		}
		if boundFP(t, db, p) != boundFP(t, db, p1) {
			t.Errorf("%s changed the bound fingerprint", name)
		}
	}
}

// TestCanonicalOrderPointScansEvidence pins what ordering by position
// buys Query 4's Boston side: its scan's point test is the STRING
// equality, which the written order puts second.
func TestCanonicalOrderPointScansEvidence(t *testing.T) {
	db := canonDB(t)
	p := NewSelect(NewScan("TOKEN", "T1"), And(
		Eq(Col(C("T1", "LABEL")), Const(relstore.String("B-ORG"))),
		Eq(Col(C("T1", "STRING")), Const(relstore.String("Boston")))))
	b := prepared(t, db, p)
	if col, val, _ := ScanFilter(b.Pred); col != 2 || val.AsString() != "Boston" {
		t.Errorf("point scan on column %d = %v, want STRING (2) = Boston; plan %s", col, val, b.Source)
	}
}

func TestCanonicalAliasSpelling(t *testing.T) {
	db := canonDB(t)
	mk := func(a1, a2 string) Plan {
		return NewProject(
			NewJoin(
				NewSelect(NewScan("TOKEN", a1), Eq(Col(C(a1, "LABEL")), Const(relstore.String("B-ORG")))),
				NewScan("TOKEN", a2),
				[]EquiCond{{Left: C(a1, "DOC_ID"), Right: C(a2, "DOC_ID")}},
				Cmp(OpNe, Col(C(a2, "TOK_ID")), Col(C(a1, "TOK_ID")))),
			C(a2, "STRING"))
	}
	p1 := mk("T1", "T2")
	for _, aliases := range [][2]string{{"LEFT_SIDE", "RIGHT_SIDE"}, {"T2", "T1"}, {"Z", "A"}} {
		p := mk(aliases[0], aliases[1])
		if boundFP(t, db, p) != boundFP(t, db, p1) {
			t.Errorf("aliases %v changed the bound fingerprint", aliases)
		}
		// The canonical plan keeps the user's aliases, and their spelling
		// does not reorder the residual filter's operands: the left
		// input's column comes first.
		src := canonSource(t, db, p)
		if want := "{(" + aliases[0] + ".TOK_ID != " + aliases[1] + ".TOK_ID)}"; !strings.Contains(src, want) {
			t.Errorf("aliases %v: canonical plan %s lacks %s", aliases, src, want)
		}
	}
}

func TestCanonicalComparisonOrientation(t *testing.T) {
	db := canonDB(t)
	lit := Const(relstore.String("B-PER"))
	col := Col(C("T", "LABEL"))
	mk := func(pred Expr) Plan {
		return NewProject(NewSelect(NewScan("TOKEN", "T"), pred), C("T", "STRING"))
	}
	if got := canonSource(t, db, mk(Cmp(OpEq, lit, col))); !strings.Contains(got, `Select[(T.LABEL = "B-PER")]`) {
		t.Errorf("'x'=LABEL is not oriented: %s", got)
	}
	if boundFP(t, db, mk(Cmp(OpEq, col, lit))) != boundFP(t, db, mk(Cmp(OpEq, lit, col))) {
		t.Error("LABEL='x' and 'x'=LABEL fingerprint differently")
	}
	n := Const(relstore.Int(3))
	id := Col(C("T", "TOK_ID"))
	if boundFP(t, db, mk(Cmp(OpGt, id, n))) != boundFP(t, db, mk(Cmp(OpLt, n, id))) {
		t.Error("TOK_ID>3 and 3<TOK_ID fingerprint differently")
	}
	// Orientation must not conflate genuinely different comparisons.
	if boundFP(t, db, mk(Cmp(OpGt, id, n))) == boundFP(t, db, mk(Cmp(OpLt, id, n))) {
		t.Error("TOK_ID>3 and TOK_ID<3 fingerprint identically")
	}
}

func TestCanonicalConstantFolding(t *testing.T) {
	db := canonDB(t)
	pred := Eq(Col(C("T", "LABEL")), Const(relstore.String("B-PER")))
	base := NewSelect(NewScan("TOKEN", "T"), pred)
	one := Const(relstore.Int(1))
	// WHERE p AND 1=1 canonicalizes to WHERE p.
	tautology := NewSelect(NewScan("TOKEN", "T"), And(pred, Eq(one, one)))
	if got, want := canonSource(t, db, tautology), canonSource(t, db, base); got != want {
		t.Errorf("tautology was not folded away: %s, want %s", got, want)
	}
	// A Select whose whole predicate folds to TRUE drops the node.
	dropped := NewSelect(NewScan("TOKEN", "T"), Eq(one, one))
	if b := prepared(t, db, dropped); b.Kind != KScan {
		t.Errorf("TRUE-predicate Select survived canonicalization: %s", b.Source)
	}
	// A contradictory conjunct folds to constant FALSE but must keep the
	// Select (an always-empty selection is not the unfiltered scan).
	contra := NewSelect(NewScan("TOKEN", "T"), And(pred, Eq(one, Const(relstore.Int(2)))))
	if got := canonSource(t, db, contra); got != "Select[false](Scan(TOKEN AS T))" {
		t.Errorf("contradiction canonicalizes to %s", got)
	}
	if boundFP(t, db, contra) == boundFP(t, db, NewScan("TOKEN", "T")) {
		t.Error("FALSE selection collapsed into its child")
	}
}

func TestCanonicalIsIdempotentAndPreservesSemantics(t *testing.T) {
	db := canonDB(t)
	p := NewProject(
		NewSelect(NewScan("TOKEN", "T"), And(
			Cmp(OpGe, Col(C("T", "TOK_ID")), Const(relstore.Int(1))),
			Eq(Const(relstore.String("B-PER")), Col(C("T", "LABEL"))),
		)),
		C("T", "STRING"))
	b1 := prepared(t, db, p)
	if b1.Source == p {
		t.Fatal("a non-canonical plan bound as written")
	}
	// A canonical plan binds as it is.
	if b2 := prepared(t, db, b1.Source); b2.Source != b1.Source || b2.Fingerprint() != b1.Fingerprint() {
		t.Errorf("not idempotent:\n%s\n%s", b1.Source, b2.Source)
	}
	for _, plan := range []Plan{p, b1.Source} {
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
	walk(prepared(t, db, sel("B-PER")))
	if len(seen) != 3 { // project / select / scan
		t.Errorf("walked %d distinct subtree fingerprints, want 3", len(seen))
	}
}

// TestCanonicalPreservesBindErrors pins that a plan fails to bind as it
// was written: canonicalization must not launder a stale qualifier into
// a valid reference, nor fold away a term that does not bind.
func TestCanonicalPreservesBindErrors(t *testing.T) {
	db := canonDB(t)
	label := Eq(Col(C("T", "LABEL")), Const(relstore.String("B-PER")))
	for name, p := range map[string]Plan{
		// SELECT TOKEN.STRING FROM TOKEN T: the qualifier names the
		// table, not the alias.
		"stale qualifier": NewProject(NewSelect(NewScan("TOKEN", "T"), label), C("TOKEN", "STRING")),
		// WHERE NOSUCH = 1 AND 1 = 0 would fold to FALSE.
		"absorbed unknown column": NewSelect(NewScan("TOKEN", "T"), And(
			Eq(Col(C("T", "NOSUCH")), Const(relstore.Int(1))),
			Eq(Const(relstore.Int(1)), Const(relstore.Int(0))))),
		// WHERE LABEL = 1 OR 1 = 1 would fold to TRUE.
		"absorbed type error": NewSelect(NewScan("TOKEN", "T"), Or(
			Eq(Col(C("T", "LABEL")), Const(relstore.Int(1))),
			Eq(Const(relstore.Int(1)), Const(relstore.Int(1))))),
	} {
		if _, err := Prepare(db, p); err == nil {
			t.Errorf("%s: %s bound", name, p)
		}
	}
}

// TestFingerprintNestedComparisonInjective pins encoding injectivity: a
// boolean comparison nested as an operand must not collide with its
// re-associated sibling (both would read "a = b = c" without parens).
func TestFingerprintNestedComparisonInjective(t *testing.T) {
	db := canonDB(t)
	a := Eq(Col(C("T", "TOK_ID")), Const(relstore.Int(1)))
	b := Eq(Col(C("T", "DOC_ID")), Const(relstore.Int(1)))
	c := Const(relstore.Bool(true))
	left := NewSelect(NewScan("TOKEN", "T"), Cmp(OpEq, Cmp(OpEq, a, b), c))
	right := NewSelect(NewScan("TOKEN", "T"), Cmp(OpEq, a, Cmp(OpEq, b, c)))
	if boundFP(t, db, left) == boundFP(t, db, right) {
		t.Errorf("re-associated nested comparisons share a fingerprint:\n%s\n%s",
			canonSource(t, db, left), canonSource(t, db, right))
	}
}

// TestBoundFingerprintUnifiesQualification pins that a qualified and an
// unqualified spelling of the same reference resolve to the same column
// position, so they share a bound fingerprint.
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
