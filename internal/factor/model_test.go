package factor

import (
	"math"
	"slices"
	"testing"

	"factordb/internal/mcmc"
	"factordb/internal/ra"
	"factordb/internal/relstore"
)

// tokenWorld builds a TOKEN(TOK_ID, STRING, LABEL) relation with one row
// per string, every LABEL set to labels[i].
func tokenWorld(t *testing.T, strs, labels []string) *relstore.DB {
	t.Helper()
	db := relstore.NewDB()
	rel := db.MustCreate(relstore.MustSchema("TOKEN",
		relstore.Column{Name: "TOK_ID", Type: relstore.TInt},
		relstore.Column{Name: "STRING", Type: relstore.TString},
		relstore.Column{Name: "LABEL", Type: relstore.TString},
	))
	for i, s := range strs {
		if _, err := rel.Insert(relstore.Tuple{relstore.Int(int64(i)), relstore.String(s), relstore.String(labels[i])}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// tokenGraph is chainGraph over the label domain {O, B-ORG}: a bias per
// token and a transition between neighbours.
func tokenGraph(n int) *Graph {
	g := chainGraph(n, 9)
	dom := NewDomain("label", "O", "B-ORG")
	for _, v := range g.Vars {
		v.Dom = dom
	}
	return g
}

// TestModelBindsRowI: a chain starts from the assignment its world holds,
// variable i lives in row i, every accepted flip reaches the chain's world
// and none reaches the prototype.
func TestModelBindsRowI(t *testing.T) {
	strs := []string{"IBM", "said", "IBM", "won"}
	labels := []string{"O", "B-ORG", "O", "O"}
	db := tokenWorld(t, strs, labels)
	m, err := NewModel(tokenGraph(len(strs)), db, "TOKEN", 2)
	if err != nil {
		t.Fatal(err)
	}
	log, prop, err := m.NewChainWorld(0)
	if err != nil {
		t.Fatal(err)
	}
	p := prop.(*Proposer)
	if want := []int{0, 1, 0, 0}; !slices.Equal(p.Assign, want) {
		t.Fatalf("initial assignment %v, want %v", p.Assign, want)
	}
	s := mcmc.NewSampler(p, 3)
	s.Run(500)
	if s.Accepted() == 0 {
		t.Fatal("no proposal accepted")
	}
	chainRel, _ := log.DB().Relation("TOKEN")
	protoRel, _ := db.Relation("TOKEN")
	for i, val := range p.Assign {
		got, _ := chainRel.GetCol(relstore.RowID(i), 2)
		if got.AsString() != m.g.Vars[i].Dom.Values[val] {
			t.Errorf("row %d holds %q, variable %d is %q", i, got.AsString(), i, m.g.Vars[i].Dom.Values[val])
		}
		if proto, _ := protoRel.GetCol(relstore.RowID(i), 2); proto.AsString() != labels[i] {
			t.Errorf("prototype row %d changed to %q", i, proto.AsString())
		}
	}
}

// TestUnrollErrors: binding a graph to a world (NewModel, which unrolls
// variable i onto row i) refuses a relation or column that cannot hold the
// graph's labels, and accepts one that can.
func TestUnrollErrors(t *testing.T) {
	strs := []string{"a", "b", "c"}
	g := tokenGraph(len(strs))
	ok := tokenWorld(t, strs, []string{"O", "O", "B-ORG"})
	cases := []struct {
		name string
		rel  string
		col  int
	}{
		{"unknown relation", "NOPE", 2},
		{"column out of range", "TOKEN", 9},
		{"negative column", "TOKEN", -1},
		{"non-string column", "TOKEN", 0},
	}
	for _, c := range cases {
		if _, err := NewModel(g, ok, c.rel, c.col); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
	if _, err := NewModel(g, ok, "TOKEN", 2); err != nil {
		t.Errorf("valid binding rejected: %v", err)
	}
}

// TestSetAssignmentValidation: the assignment a world holds is validated
// when it is read, by NewModel and again by every chain's clone: a missing
// row or a value outside a variable's domain is refused.
func TestSetAssignmentValidation(t *testing.T) {
	strs := []string{"a", "b", "c"}
	g := tokenGraph(len(strs))
	cases := []struct {
		name string
		db   *relstore.DB
	}{
		{"fewer rows than variables", tokenWorld(t, strs[:2], []string{"O", "O"})},
		{"value outside the domain", tokenWorld(t, strs, []string{"O", "B-PER", "O"})},
		{"empty value", tokenWorld(t, strs, []string{"O", "", "O"})},
	}
	for _, c := range cases {
		if _, err := NewModel(g, c.db, "TOKEN", 2); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
	m, err := NewModel(g, tokenWorld(t, strs, []string{"B-ORG", "O", "B-ORG"}), "TOKEN", 2)
	if err != nil {
		t.Fatal(err)
	}
	_, prop, err := m.NewChainWorld(0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := prop.(*Proposer).Assign, []int{1, 0, 1}; !slices.Equal(got, want) {
		t.Errorf("assignment read from the world = %v, want %v", got, want)
	}
}

// TestExactAnswerMatchesExactProb: the SQL-level oracle agrees with the
// event it stands for. Query 1 (the strings of B-ORG tokens) answers s
// exactly when some token spelled s is B-ORG.
func TestExactAnswerMatchesExactProb(t *testing.T) {
	strs := []string{"IBM", "said", "IBM", "won"}
	g := tokenGraph(len(strs))
	m, err := NewModel(g, tokenWorld(t, strs, []string{"O", "O", "O", "O"}), "TOKEN", 2)
	if err != nil {
		t.Fatal(err)
	}
	q := ra.NewProject(
		ra.NewSelect(ra.NewScan("TOKEN", "T"),
			ra.Eq(ra.Col(ra.C("T", "LABEL")), ra.Const(relstore.String("B-ORG")))),
		ra.C("T", "STRING"),
	)
	got, err := m.ExactAnswer(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("answer has %d tuples, want 3 (IBM, said, won)", len(got))
	}
	for _, s := range []string{"IBM", "said", "won"} {
		want, err := g.ExactProb(func(a []int) bool {
			for i, str := range strs {
				if str == s && a[i] == 1 {
					return true
				}
			}
			return false
		})
		if err != nil {
			t.Fatal(err)
		}
		if p := got[relstore.Tuple{relstore.String(s)}.Key()]; math.Abs(p-want) > 1e-12 {
			t.Errorf("Pr[%s] = %v, want %v", s, p, want)
		}
	}
}
