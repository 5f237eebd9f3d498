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

// values returns the assignment p reads from its chain's world.
func values(p *Proposer) []int {
	a := make([]int, len(p.index))
	for i, t := range p.index {
		a[i] = t[p.rel.CodeAt(relstore.RowID(i), p.col)]
	}
	return a
}

// TestModelBindsRowI: a chain starts from the assignment its world holds,
// variable i lives in row i, the walk moves the chain's world and never
// the prototype's.
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
	start := []int{0, 1, 0, 0}
	if got := values(p); !slices.Equal(got, start) {
		t.Fatalf("initial assignment %v, want %v", got, start)
	}
	s := mcmc.NewSampler(p, 3)
	moved := false
	for range 500 {
		s.Step()
		moved = moved || !slices.Equal(values(p), start)
	}
	if s.Accepted() == 0 || !moved {
		t.Fatalf("%d proposals accepted, world moved: %v", s.Accepted(), moved)
	}
	chainRel, _ := log.DB().Relation("TOKEN")
	protoRel, _ := db.Relation("TOKEN")
	for i, val := range values(p) {
		got, _ := chainRel.GetCol(relstore.RowID(i), 2)
		if val < 0 || got.AsString() != m.g.Vars[i].Dom.Values[val] {
			t.Errorf("row %d holds %q, read as value %d", i, got.AsString(), val)
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
	// The binding declares its one column hidden, and no other.
	rel, _ := ok.Relation("TOKEN")
	for i, col := range rel.Schema().Cols {
		if rel.Schema().Hidden(i) != (i == 2) {
			t.Errorf("TOKEN.%s: hidden=%v, want %v", col.Name, rel.Schema().Hidden(i), i == 2)
		}
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
	if got, want := values(prop.(*Proposer)), []int{1, 0, 1}; !slices.Equal(got, want) {
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
