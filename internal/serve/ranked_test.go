package serve

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"factordb/internal/core"
	"factordb/internal/exp"
	"factordb/internal/ra"
	"factordb/internal/relstore"
)

// TestCacheHitMutationIsolation is the regression test for the result-
// cache aliasing bug: a cache hit used to be a shallow copy sharing the
// Tuples and cis slices with the cached entry, so any caller mutating
// its result (the ranked-query path sorts in place) corrupted the entry
// for every later hit. It now passes by construction rather than by
// copying: the frozen answer is reachable only through accessors that
// return values or fresh copies, and every Result — miss or hit — is
// its own header over it. The test makes every write the API allows,
// on a fresh evaluation and on a hit, and checks the next hit.
func TestCacheHitMutationIsolation(t *testing.T) {
	eng := testEngine(t, Config{Chains: 1, Seed: 3})
	ctx := context.Background()
	query := func() *Result {
		t.Helper()
		res, err := eng.Query(ctx, exp.Query1, QueryOptions{Samples: 10})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	first := query()
	if first.Cached {
		t.Fatal("first query reported cached")
	}
	if first.Len() < 2 {
		t.Fatalf("degenerate corpus: %d answer tuples", first.Len())
	}
	want, wantCols := tuples(first), first.Columns()
	wantVal := first.Value(0, 0).String()
	wantP := first.Prob(0)
	wantLen := first.Len()

	// Every write the API allows: the returned column slice, each header
	// field, and the whole header at once.
	mutate := func(r *Result) {
		cols := r.Columns()
		cols[0] = "CORRUPTED"
		_ = append(cols[:0], "X", "Y")
		r.SQL, r.Samples, r.Chains, r.Epoch = "CORRUPTED", -1, -1, -1
		r.Confidence, r.Partial, r.Cached, r.EarlyStop = 2, true, true, true
		r.Elapsed, r.Trace = -1, &QueryTrace{SQL: "CORRUPTED"}
		*r = Result{}
	}
	samples := first.Samples
	mutate(first)

	second := query()
	if !second.Cached {
		t.Fatal("second query missed the cache")
	}
	if second.Len() != wantLen {
		t.Fatalf("cached answer shrank: %d tuples, want %d", second.Len(), wantLen)
	}
	if second.Value(0, 0).String() != wantVal || second.Prob(0) != wantP {
		t.Errorf("cache corrupted by the caller's mutation: got (%q, %v), want (%q, %v)",
			second.Value(0, 0).String(), second.Prob(0), wantVal, wantP)
	}
	if second.Width(0) == 0 {
		t.Error("cached typed tuples corrupted")
	}
	mutate(second)

	third := query()
	if !third.Cached || third.SQL != exp.Query1 || third.Samples != samples || third.Partial || third.Trace != nil {
		t.Errorf("hit header corrupted: %+v", third)
	}
	if !reflect.DeepEqual(tuples(third), want) || !reflect.DeepEqual(third.Columns(), wantCols) {
		t.Errorf("hit answer corrupted: %v %+v, want %v %+v", third.Columns(), tuples(third), wantCols, want)
	}
}

// TestServedRankedQuery runs ORDER BY P DESC LIMIT k through the engine:
// the answer must come back truncated and ranked, whatever the sampled
// marginals turn out to be.
func TestServedRankedQuery(t *testing.T) {
	eng := testEngine(t, Config{Chains: 2, Seed: 11})
	const k = 3
	res, err := eng.Query(context.Background(),
		exp.Query1+` ORDER BY P DESC LIMIT 3`, QueryOptions{Samples: 24})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() > k {
		t.Fatalf("LIMIT %d returned %d tuples", k, res.Len())
	}
	for i := 1; i < res.Len(); i++ {
		if res.Prob(i) > res.Prob(i-1) {
			t.Errorf("rank order violated at %d: %v after %v", i, res.Prob(i), res.Prob(i-1))
		}
	}
	// Query 1 always carries a block of near-certain tuples; a top-k
	// that starts anywhere below them means the ranking was inverted or
	// truncated from the wrong end.
	if res.Len() > 0 && res.Prob(0) < 0.5 {
		t.Errorf("top-ranked tuple has p=%v; ranking picked the wrong end", res.Prob(0))
	}
	if res.Partial {
		t.Error("complete ranked query flagged partial")
	}
	// Its full sibling must contain every ranked tuple with the limit as
	// a prefix-of-ranking relationship left to the facade equivalence
	// tests (the pool keeps walking between queries, so marginals here
	// are not bitwise comparable).
	full, err := eng.Query(context.Background(), exp.Query1, QueryOptions{Samples: 24})
	if err != nil {
		t.Fatal(err)
	}
	if full.Len() < res.Len() {
		t.Errorf("full answer (%d) smaller than its top-%d", full.Len(), k)
	}
}

// TestTopKSeparated exercises the early-stop criterion directly: a clear
// probability gap across the k-boundary separates; ties and thin samples
// do not.
func TestTopKSeparated(t *testing.T) {
	sample := func(names ...string) ra.Iterator {
		return func(yield func(relstore.Tuple, int64) bool) {
			for _, n := range names {
				yield(relstore.Tuple{relstore.String(n)}, 1)
			}
		}
	}
	peeked := func(est *core.Estimator) []handoff {
		return []handoff{{snap: est.Snapshot(), epoch: 1}}
	}
	const z = 1.96

	// A always present, B once in 40: the gap separates at k=1.
	est := core.NewEstimator()
	for i := 0; i < 40; i++ {
		if i == 0 {
			est.AddSampleStream(sample("A", "B"))
		} else {
			est.AddSampleStream(sample("A"))
		}
	}
	if !topKSeparated(peeked(est), 1, z) {
		t.Error("clear gap did not separate")
	}

	// Both tuples always present: a dead tie can never separate.
	tie := core.NewEstimator()
	for i := 0; i < 40; i++ {
		tie.AddSampleStream(sample("A", "B"))
	}
	if topKSeparated(peeked(tie), 1, z) {
		t.Error("dead tie separated")
	}

	// Fewer tuples than k: new tuples may still surface, keep sampling.
	if topKSeparated(peeked(est), 5, z) {
		t.Error("undersized answer separated")
	}

	// Below the sample floor nothing separates, however wide the gap.
	thin := core.NewEstimator()
	for i := 0; i < int(minTopKStopSamples)-1; i++ {
		if i == 0 {
			thin.AddSampleStream(sample("A", "B"))
		} else {
			thin.AddSampleStream(sample("A"))
		}
	}
	if topKSeparated(peeked(thin), 1, z) {
		t.Error("separated below the sample floor")
	}
}

// TestRankedEarlyStop pins the budget payoff end-to-end on the workload
// ranked queries are made for: the coref pair marginals are bimodal
// (same-entity pairs near 1, cross-entity pairs near 0), so placing the
// LIMIT at the gap lets the engine separate the top k and return long
// before an enormous budget — the "stop refining tuples that cannot
// enter the top k" behavior.
func TestRankedEarlyStop(t *testing.T) {
	sys, err := exp.BuildCorefOver(exp.CorefConfig{NumEntities: 4, MentionsPerEntity: 3, Seed: 17}, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(sys.Prototype, Config{Chains: 1, Seed: 19, StepsPerSample: 200})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	ctx := context.Background()

	// Probe the marginal landscape to find the gap: k is the size of the
	// near-certain block, and the next tuple must sit clearly below it.
	probe, err := eng.Query(ctx, exp.PairQuery, QueryOptions{Samples: 64, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	k, gap := 0, 0.0
	for i := 1; i < probe.Len(); i++ {
		if g := probe.Prob(i-1) - probe.Prob(i); g > gap {
			k, gap = i, g
		}
	}
	if k == 0 || gap < 0.25 {
		t.Skipf("no clean marginal gap at this seed (best gap %.3f at k=%d of %d); early stop untestable here",
			gap, k, probe.Len())
	}

	const budget = 4000
	res, err := eng.Query(ctx,
		exp.PairQuery+fmt.Sprintf(" ORDER BY P DESC LIMIT %d", k),
		QueryOptions{Samples: budget, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.EarlyStop {
		t.Fatalf("ranked query ran its full %d-sample budget across a clean gap (collected %d)",
			budget, res.Samples)
	}
	if res.Samples >= budget {
		t.Errorf("early stop claimed but the full budget was spent (%d samples)", res.Samples)
	}
	if res.Partial {
		t.Error("early-stopped query flagged partial")
	}
	if res.Len() != k {
		t.Errorf("top-%d returned %d tuples", k, res.Len())
	}
	t.Logf("early stop after %d/%d samples for k=%d", res.Samples, budget, k)
}

// TestRankedReplay pins that a ranked query's stop replays: its looks
// fall on per-chain sample counts, not on the clock, so two fresh
// engines at one seed answer one ranked query with the same sample
// count, the same early stop and bit-identical tuples, marginals and
// intervals, however the machine schedules their chains.
func TestRankedReplay(t *testing.T) {
	sys, err := exp.BuildCorefOver(exp.CorefConfig{NumEntities: 4, MentionsPerEntity: 3, Seed: 17}, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		t.Helper()
		eng, err := New(sys.Prototype, Config{Chains: 2, Seed: 19, StepsPerSample: 200})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		res, err := eng.Query(context.Background(), exp.PairQuery+" ORDER BY P DESC LIMIT 8",
			QueryOptions{Samples: 4000, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !a.EarlyStop {
		t.Fatalf("the ranked query ran its whole budget (%d samples); the replay of a stop is untested", a.Samples)
	}
	if a.Samples != b.Samples || a.EarlyStop != b.EarlyStop {
		t.Fatalf("replay: %d samples, early stop %v; first run: %d samples, early stop %v",
			b.Samples, b.EarlyStop, a.Samples, a.EarlyStop)
	}
	if ta, tb := tuples(a), tuples(b); !reflect.DeepEqual(ta, tb) {
		t.Errorf("replay answered %+v, first run %+v", tb, ta)
	}
	t.Logf("both runs stopped after %d of 4000 samples", a.Samples)
}
