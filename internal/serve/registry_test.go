package serve

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"factordb/internal/exp"
	"factordb/internal/ivm"
	"factordb/internal/ra"
	"factordb/internal/relstore"
)

// TestCacheKeysOnFingerprint is the regression test for result-cache
// keying: the cache used to key on the raw SQL string, so whitespace,
// keyword-case, alias, and flipped-comparison variants of one query never
// hit. Keying on the bound statement's fingerprint makes them one entry —
// but only alongside the output column names, which the fingerprint
// leaves out and a cached answer carries.
func TestCacheKeysOnFingerprint(t *testing.T) {
	eng := testEngine(t, Config{Chains: 2, Seed: 41})
	ctx := context.Background()

	base := `SELECT STRING FROM TOKEN WHERE LABEL='B-PER' AND TOK_ID >= 0`
	variants := []string{
		"select   string \n FROM token WHERE label = 'B-PER'  and tok_id>=0", // whitespace + case
		`SELECT STRING FROM TOKEN WHERE TOK_ID >= 0 AND LABEL = 'B-PER'`,     // conjunct order
		`SELECT T.STRING FROM TOKEN T WHERE T.LABEL='B-PER' AND T.TOK_ID>=0`, // redundant qualification
	}
	aliased := []string{
		`SELECT T.STRING FROM TOKEN T WHERE T.LABEL='B-PER'`, // alias spelling...
		`SELECT U.STRING FROM TOKEN U WHERE U.LABEL='B-PER'`, // ...must not matter
	}

	first, err := eng.Query(ctx, base, QueryOptions{Samples: 8})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first evaluation reported cached")
	}
	for _, sql := range variants {
		res, err := eng.Query(ctx, sql, QueryOptions{Samples: 8})
		if err != nil {
			t.Fatalf("variant %q: %v", sql, err)
		}
		if !res.Cached {
			t.Errorf("textual variant %q missed the cache", sql)
		}
		if res.SQL != sql {
			t.Errorf("cache hit reports SQL %q, want the variant as issued %q", res.SQL, sql)
		}
		if res.Len() != first.Len() {
			t.Errorf("variant %q answered %d tuples, original %d", sql, res.Len(), first.Len())
		}
	}

	a1, err := eng.Query(ctx, aliased[0], QueryOptions{Samples: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a1.Cached {
		t.Fatal("first aliased evaluation reported cached (budget differs from base)")
	}
	a2, err := eng.Query(ctx, aliased[1], QueryOptions{Samples: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !a2.Cached {
		t.Error("alias-renamed variant missed the cache")
	}

	// The ranked sibling shares the plan fingerprint but not the result
	// spec: it must NOT be served from the unranked entry.
	ranked, err := eng.Query(ctx, base+` ORDER BY P DESC LIMIT 2`, QueryOptions{Samples: 8})
	if err != nil {
		t.Fatal(err)
	}
	if ranked.Cached {
		t.Error("ranked query was served from the unranked cache entry")
	}
	if ranked.Len() > 2 {
		t.Errorf("ranked answer has %d tuples, want <= 2", ranked.Len())
	}

	// Query 2 renamed shares Query 2's fingerprint, and so its views, but
	// not its columns: it must not be answered under the other name.
	if _, err := eng.Query(ctx, exp.Query2, QueryOptions{Samples: 8}); err != nil {
		t.Fatal(err)
	}
	renamed, err := eng.Query(ctx, strings.Replace(exp.Query2, "AS PERSONS", "AS N", 1), QueryOptions{Samples: 8})
	if err != nil {
		t.Fatal(err)
	}
	if renamed.Cached {
		t.Error("Query 2 spelled AS N was served from the AS PERSONS cache entry")
	}
	if cols := renamed.Columns(); len(cols) != 1 || cols[0] != "N" {
		t.Errorf("Query 2 spelled AS N reports columns %v, want [N]", cols)
	}
}

// TestCompiledStatementRefersToNoWorld pins what a plan-cache entry
// keeps: a statement bound once against the schema that no executor runs
// until it is mounted on a world. Run unmounted, it fails instead of
// reading the prototype its schema came from; mounted on the prototype
// after a pool write, it reads that write, which the prototype took
// before any chain. The engine's world is its own: a write to the
// package's shared NER system would leak into every later test.
func TestCompiledStatementRefersToNoWorld(t *testing.T) {
	eng := corefEngine(t, Config{Chains: 1, Seed: 47})
	ctx := context.Background()
	const q = `SELECT STRING FROM MENTION WHERE MENTION_ID = 5`
	comp, _, err := eng.plans.CompileQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ra.Stream(comp.Stmt); !errors.Is(err, ra.ErrUnmounted) {
		t.Errorf("ra.Stream of the unmounted statement = %v, want ErrUnmounted", err)
	}
	if _, _, _, err := ra.AnalyzeStream(comp.Stmt); !errors.Is(err, ra.ErrUnmounted) {
		t.Errorf("ra.AnalyzeStream of the unmounted statement = %v, want ErrUnmounted", err)
	}
	if _, err := ivm.NewView(comp.Stmt); !errors.Is(err, ra.ErrUnmounted) {
		t.Errorf("ivm.NewView of the unmounted statement = %v, want ErrUnmounted", err)
	}

	if _, err := eng.Exec(ctx, `UPDATE MENTION SET STRING = 'Zzz' WHERE MENTION_ID = 5`, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(ctx, q, QueryOptions{Samples: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Value(0, 0).AsString() != "Zzz" {
		t.Errorf("after the write the engine answers %d tuples, want only Zzz", res.Len())
	}
	proto, err := comp.Stmt.On(eng.src.WorldDB())
	if err != nil {
		t.Fatal(err)
	}
	bag, err := ra.Eval(proto)
	if err != nil {
		t.Fatal(err)
	}
	if bag.Size() != 1 || bag.Count(relstore.Tuple{relstore.String("Zzz")}.Key()) != 1 {
		t.Error("the pool write did not reach the prototype world")
	}
}

// TestSharedViewAcrossOptions pins the tentpole property end-to-end: two
// queries with equal plans but different sample budgets and confidence
// levels share one physical view per chain — budget and confidence apply
// at estimator-merge time, never to view identity — and the walk loop
// maintains that view once per batch regardless of subscriber count.
func TestSharedViewAcrossOptions(t *testing.T) {
	eng := testEngine(t, Config{Chains: 2, Seed: 43, StepsPerSample: 100})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// A long-running query holds the view open...
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := eng.Query(ctx, exp.Query1, QueryOptions{Samples: 1 << 30, NoCache: true})
		done <- outcome{res, err}
	}()
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitFor("view registration on both chains", func() bool { return eng.sharedViews() == 2 })

	// ...while a sibling with a different budget AND confidence attaches.
	res, err := eng.Query(ctx, exp.Query1, QueryOptions{Samples: 6, Confidence: 0.9, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples < 6 {
		t.Errorf("sibling collected %d samples, want >= 6", res.Samples)
	}
	if res.Confidence != 0.9 {
		t.Errorf("sibling confidence = %v, want its own 0.9", res.Confidence)
	}
	if hits := eng.m.viewHits.Value(); hits < 2 {
		t.Errorf("view hits = %d, want >= 2 (one per chain): options leaked into view identity", hits)
	}
	if v := eng.sharedViews(); v != 2 {
		t.Errorf("shared views = %d during overlap, want 2 (one physical view per chain)", v)
	}

	// The long query still owns the view; cancelling it releases it.
	cancel()
	o := <-done
	if o.err == nil && !o.res.Partial {
		t.Error("cancelled long query returned a complete result")
	}
	waitFor("view eviction after last unsubscribe", func() bool { return eng.sharedViews() == 0 })
}

// TestSharedViewMaintenanceAmortized checks the walk-loop invariant
// directly: with N queries subscribed to one plan on one chain, the chain
// maintains one physical view, every registration after the first is a
// hit, and the samples counter advances per subscriber (every query
// receives every sample) while the view work stays 1x. A long-running
// holder keeps the view alive so the N short queries deterministically
// attach to it even on a single-CPU scheduler.
func TestSharedViewMaintenanceAmortized(t *testing.T) {
	eng := testEngine(t, Config{Chains: 1, Seed: 47, StepsPerSample: 100,
		MaxConcurrentQueries: 32, MaxQueuedQueries: 32})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	holderDone := make(chan struct{})
	go func() {
		defer close(holderDone)
		eng.Query(ctx, exp.Query4, QueryOptions{Samples: 1 << 30, NoCache: true}) //nolint:errcheck
	}()
	deadline := time.Now().Add(30 * time.Second)
	for eng.sharedViews() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("holder query never registered its view")
		}
		time.Sleep(2 * time.Millisecond)
	}

	const n = 8
	type outcome struct {
		res *Result
		err error
	}
	results := make(chan outcome, n)
	for i := 0; i < n; i++ {
		go func() {
			res, err := eng.Query(ctx, exp.Query4, QueryOptions{Samples: 30, NoCache: true})
			results <- outcome{res, err}
		}()
	}
	for i := 0; i < n; i++ {
		o := <-results
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.res.Samples < 30 {
			t.Errorf("query %d: %d samples, want >= 30", i, o.res.Samples)
		}
	}
	// All n queries attached to the holder's physical view.
	if hits := eng.m.viewHits.Value(); hits < n {
		t.Errorf("view hits = %d for %d identical queries over a held view, want >= %d", hits, n, n)
	}
	if v := eng.sharedViews(); v != 1 {
		t.Errorf("shared views = %d with the holder still subscribed, want 1", v)
	}
	cancel()
	<-holderDone
}
