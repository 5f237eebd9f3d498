package ivm_test

import (
	"fmt"
	"math/rand"
	"testing"

	"factordb/internal/exp"
	"factordb/internal/ivm"
	"factordb/internal/mcmc"
	"factordb/internal/ra"
	"factordb/internal/sqlparse"
	"factordb/internal/world"
)

// TestFlipRecordsFoldLikeFullEval feeds views the flip records a real
// change log drains from a walked NER world and holds each to ra.Eval
// after every one of 60 batches: the paper's four queries, a projection
// that never reads LABEL, the column the walk flips, a selection on a
// label no flip takes, and a projection that reads LABEL and nothing
// else. Every fifth batch shares its flips with an UPDATE of STRING, an
// INSERT and a DELETE, and after every other Drain the walk goes on
// before the views fold. Each leaf counts the flip records it gathers: the two that
// cannot see a flip gather none, and neither does Query 3's outer TOKEN,
// which reads only DOC_ID.
func TestFlipRecordsFoldLikeFullEval(t *testing.T) {
	sys, err := exp.BuildNER(exp.Config{NumTokens: 3000, Seed: 2, UseSkip: true})
	if err != nil {
		t.Fatal(err)
	}
	log, proposer, err := sys.NewChainWorld(0)
	if err != nil {
		t.Fatal(err)
	}
	sampler := mcmc.NewSampler(proposer, 5)
	sampler.Run(10000)
	log.Drain()
	sqls := []string{
		exp.Query1, exp.Query2, exp.Query3, exp.Query4,
		`SELECT DOC_ID, STRING FROM TOKEN`,
		`SELECT STRING FROM TOKEN WHERE LABEL = 'I-NONE'`,
		`SELECT DOC_ID, LABEL FROM TOKEN`,
	}
	const unread, unmatched, projected = 4, 5, 6
	bounds := make([]*ra.Bound, len(sqls))
	views := make([]*ivm.View, len(sqls))
	for i, sql := range sqls {
		if bounds[i], err = ra.Bind(log.DB(), mustCompile(t, sql)); err != nil {
			t.Fatal(err)
		}
		if views[i], err = ivm.NewView(bounds[i]); err != nil {
			t.Fatal(err)
		}
	}
	tok, err := log.DB().Relation("TOKEN")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	nextTok := int64(1_000_000)
	exec := func(sql string) {
		t.Helper()
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
	for batch := 0; batch < 60; batch++ {
		sampler.Run(300)
		if batch%5 == 4 {
			target := rng.Int63n(int64(tok.Len()))
			exec(fmt.Sprintf(`UPDATE TOKEN SET STRING = 'Boston' WHERE TOK_ID = %d`, target))
			exec(fmt.Sprintf(`INSERT INTO TOKEN VALUES (%d, %d, 'Smith', 'B-PER', 'B-PER')`, nextTok, rng.Intn(10)))
			exec(fmt.Sprintf(`DELETE FROM TOKEN WHERE TOK_ID = %d`, target+1))
			nextTok++
			sampler.Run(300)
		}
		d := log.Drain()
		tuples := 0
		for _, r := range d["TOKEN"] {
			if r.Tuple != nil {
				tuples++
			}
		}
		if len(d["TOKEN"]) == tuples || (batch%5 == 4) != (tuples > 0) {
			t.Fatalf("batch %d drained %d flip records and %d DML rows", batch, len(d["TOKEN"])-tuples, tuples)
		}
		// The world as drained is what every view must fold to. After
		// a flip-only drain the walk goes on before the views fold, as
		// the lifetime of a drained delta allows; a join that a write
		// makes remount reads the store, so it must fold at once.
		fulls := make([]*ra.Bag, len(views))
		for i := range views {
			if fulls[i], err = ra.Eval(bounds[i]); err != nil {
				t.Fatal(err)
			}
		}
		if tuples == 0 {
			sampler.Run(100)
		}
		for i, v := range views {
			v.Apply(d)
			full := fulls[i]
			a, got := v.Result(), ra.NewBag(nil)
			for s := int32(0); int(s) < a.Slots(); s++ {
				got.Add(a.Tuple(s), a.Count(s))
			}
			if !got.Equal(full) {
				t.Fatalf("batch %d, %s: view diverged from full evaluation\nview: %v\nfull: %v", batch, sqls[i], rowsOf(got), rowsOf(full))
			}
		}
	}
	for i, v := range views {
		t.Logf("%s: gathers per leaf %v", sqls[i], ivm.Gathers(v))
	}
	for _, i := range []int{unread, unmatched} {
		if g := ivm.Gathers(views[i]); len(g) != 1 || g[0] != 0 {
			t.Errorf("%s: its leaf gathered %v flip records, want none", sqls[i], g)
		}
	}
	for _, i := range []int{0, projected} {
		if g := ivm.Gathers(views[i]); len(g) != 1 || g[0] == 0 {
			t.Errorf("%s: its leaf gathered %v flip records, want some", sqls[i], g)
		}
	}
	if g := ivm.Gathers(views[2]); len(g) != 2 || g[0] != 0 || g[1] == 0 {
		t.Errorf("Query 3's leaves gathered %v flip records, want none in the outer TOKEN and some in the counted one", g)
	}
}
