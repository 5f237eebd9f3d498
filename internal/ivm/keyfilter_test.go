package ivm_test

import (
	"fmt"
	"testing"

	"factordb/internal/exp"
	"factordb/internal/ivm"
	"factordb/internal/mcmc"
	"factordb/internal/ra"
	"factordb/internal/relstore"
	"factordb/internal/sqlparse"
	"factordb/internal/world"
)

// TestKeyFilterFollowsWrites holds Query 4's view, whose person side
// keeps only documents holding a "Boston" token, to full evaluation
// while DML moves that set on a walked NER world. A write that brings a
// document into the set remounts the join once: an INSERT of a
// "Boston"/B-ORG token into a document with persons and none, and an
// UPDATE that makes a token of another such document "Boston". A DELETE
// of a document's only "Boston" token leaves a document the set no
// longer needs, which costs nothing, and no flip ever remounts. Every
// write shares its batch with sampler flips, and flip-only batches
// follow each.
func TestKeyFilterFollowsWrites(t *testing.T) {
	sys, err := exp.BuildNER(exp.Config{NumTokens: 5000, Seed: 1, UseSkip: true})
	if err != nil {
		t.Fatal(err)
	}
	log, proposer, err := sys.NewChainWorld(0)
	if err != nil {
		t.Fatal(err)
	}
	sampler := mcmc.NewSampler(proposer, 3)
	sampler.Run(20000)
	log.Drain()
	q4, err := ra.Bind(log.DB(), mustCompile(t, exp.Query4))
	if err != nil {
		t.Fatal(err)
	}
	view, err := ivm.NewView(q4)
	if err != nil {
		t.Fatal(err)
	}

	batch := 0
	round := func(sql string, wantRemounts int) {
		t.Helper()
		before := ivm.Remounts(view)
		if sql != "" {
			mut, err := sqlparse.CompileExec(sql)
			if err != nil {
				t.Fatal(err)
			}
			ops, err := world.ResolveMutation(log.DB(), mut)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := log.ApplyOps(ops); err != nil {
				t.Fatal(err)
			}
		}
		sampler.Run(500)
		view.Apply(log.Drain())
		batch++
		what := fmt.Sprintf("batch %d (%q)", batch, sql)
		full, err := ra.Eval(q4)
		if err != nil {
			t.Fatal(err)
		}
		a, got := view.Result(), ra.NewBag(nil)
		for s := int32(0); int(s) < a.Slots(); s++ {
			got.Add(a.Tuple(s), a.Count(s))
		}
		if !got.Equal(full) {
			t.Fatalf("%s: view diverged from full evaluation\nview: %v\nfull: %v", what, rowsOf(got), rowsOf(full))
		}
		if n := ivm.Remounts(view) - before; n != wantRemounts {
			t.Errorf("%s remounted the join %d times, want %d", what, n, wantRemounts)
		}
	}
	flips := func() {
		t.Helper()
		for i := 0; i < 3; i++ {
			round("", 0)
		}
	}

	docs := tokenDocs(t, log.DB())
	outside := func(skip int64) (doc, orgTok int64) {
		t.Helper()
		for _, d := range docs.order {
			if s := docs.byDoc[d]; d != skip && s.boston == 0 && s.persons > 0 {
				return d, s.org
			}
		}
		t.Fatal("no document without a Boston token holds a person")
		return 0, 0
	}
	flips()

	doc, _ := outside(-1)
	round(fmt.Sprintf(`INSERT INTO TOKEN VALUES (%d, %d, 'Boston', 'B-ORG', 'B-ORG')`, 1_000_000, doc), 1)
	flips()

	doc, tok := outside(doc)
	if tok < 0 {
		t.Fatalf("document %d holds no B-ORG token to rename", doc)
	}
	round(fmt.Sprintf(`UPDATE TOKEN SET STRING = 'Boston' WHERE TOK_ID = %d`, tok), 1)
	flips()

	for _, d := range docs.order {
		if s := docs.byDoc[d]; s.boston == 1 {
			round(fmt.Sprintf(`DELETE FROM TOKEN WHERE TOK_ID = %d`, s.bostonTok), 0)
			flips()
			return
		}
	}
	t.Fatal("no document holds exactly one Boston token")
}

// docStats is what TestKeyFilterFollowsWrites needs to know of a
// document: its "Boston" tokens (the last one's TOK_ID), its B-PER
// tokens, and one B-ORG token's TOK_ID, or -1.
type docStats struct {
	boston, persons int
	bostonTok, org  int64
}

type docIndex struct {
	order []int64
	byDoc map[int64]*docStats
}

func tokenDocs(t *testing.T, db *relstore.DB) docIndex {
	t.Helper()
	rel, err := db.Relation("TOKEN")
	if err != nil {
		t.Fatal(err)
	}
	sch := rel.Schema()
	id, doc, str, label := sch.ColIndex("TOK_ID"), sch.ColIndex("DOC_ID"), sch.ColIndex("STRING"), sch.ColIndex("LABEL")
	x := docIndex{byDoc: map[int64]*docStats{}}
	rel.Scan(func(_ relstore.RowID, r relstore.Tuple) bool {
		d := r[doc].AsInt()
		s := x.byDoc[d]
		if s == nil {
			s = &docStats{org: -1}
			x.byDoc[d] = s
			x.order = append(x.order, d)
		}
		if r[str].AsString() == "Boston" {
			s.boston++
			s.bostonTok = r[id].AsInt()
		}
		switch r[label].AsString() {
		case "B-PER":
			s.persons++
		case "B-ORG":
			s.org = r[id].AsInt()
		}
		return true
	})
	return x
}

func rowsOf(b *ra.Bag) []string {
	var out []string
	for _, r := range b.Rows() {
		out = append(out, fmt.Sprintf("%v#%d", r.Tuple, r.N))
	}
	return out
}
