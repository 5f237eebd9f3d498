package serve

import (
	"context"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"factordb/internal/exp"
)

// raceEnabled reports a race-detector build (see race_test.go), where
// allocation counts are not reproducible.
var raceEnabled bool

// allocBudget reads the named ceilings from testdata/alloc_budget.txt.
func allocBudget(t *testing.T) map[string]float64 {
	t.Helper()
	data, err := os.ReadFile("testdata/alloc_budget.txt")
	if err != nil {
		t.Fatalf("reading alloc budget: %v", err)
	}
	budget := make(map[string]float64)
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		n, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if !ok || err != nil {
			t.Fatalf("parsing alloc budget line %q", line)
		}
		budget[name] = n
	}
	return budget
}

// TestCacheHitAllocBudget is the allocation gate of the result-cache hit
// (testdata/alloc_budget.txt): an untraced Engine.Query answered from
// the cache runs no walk, no view and no rank, so what it allocates is
// the request pipeline's own overhead — and it must not grow with the
// answer, because a hit shares the frozen answer instead of copying it.
// Counts only, so this is a gate, not a trend.
func TestCacheHitAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget gate skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	budget := allocBudget(t)
	sys, err := exp.BuildNER(exp.Config{NumTokens: 5000, Seed: 1, UseSkip: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(sys.Prototype, Config{Chains: 1, StepsPerSample: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	opts := QueryOptions{Samples: 16}
	for _, q := range []struct{ tag, sql string }{{"q1", exp.Query1}, {"q4", exp.Query4}} {
		miss, err := eng.Query(ctx, q.sql, opts)
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(50, func() {
			res, err := eng.Query(ctx, q.sql, opts)
			if err != nil || !res.Cached || res.Trace != nil {
				t.Fatalf("hit: cached=%v trace=%v err=%v", res != nil && res.Cached, res != nil && res.Trace != nil, err)
			}
		})
		t.Logf("hit_%s: %v allocs (%d answer tuples)", q.tag, got, miss.Len())
		if max, ok := budget["hit_"+q.tag]; !ok || got > max {
			t.Errorf("a cache hit of %s allocates %v, budget %v", q.tag, got, max)
		}
	}

	// Query 4 with its literals as placeholders, executed alternately
	// with two argument lists whose answers are both cached: each
	// execution finds its own arguments' plan, so it allocates as a hit
	// of the inline spelling does.
	param := strings.NewReplacer(`'Boston'`, `?`, `'B-ORG'`, `?`, `'B-PER'`, `?`).Replace(exp.Query4)
	argSets := [2][]any{{"Boston", "B-ORG", "B-PER"}, {"Paris", "B-ORG", "B-PER"}}
	for _, args := range argSets {
		if _, err := eng.Query(ctx, param, QueryOptions{Samples: 16, Args: args}); err != nil {
			t.Fatal(err)
		}
	}
	var calls int
	got := testing.AllocsPerRun(50, func() {
		calls++
		res, err := eng.Query(ctx, param, QueryOptions{Samples: 16, Args: argSets[calls%2]})
		if err != nil || !res.Cached {
			t.Fatalf("placeholder hit: cached=%v err=%v", res != nil && res.Cached, err)
		}
	})
	t.Logf("hit_q4 with alternating arguments: %v allocs", got)
	if max := budget["hit_q4"]; got > max {
		t.Errorf("a cache hit of Query 4 with alternating arguments allocates %v, budget %v", got, max)
	}
}

// TestCertainAnswerAllocBudget is the allocation gate of a certain
// answer (testdata/alloc_budget.txt): an untraced, uncached Engine.Query
// of a plan that reads no hidden column is one evaluation on the
// prototype world, with no chain asked, no view mounted and no sample
// awaited, so it allocates the request pipeline's overhead, one streaming
// run and its one-tuple answer — however many chains and samples it is
// served with. Counts only, so this is a gate, not a trend.
func TestCertainAnswerAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget gate skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	budget := allocBudget(t)
	sys, err := exp.BuildNER(exp.Config{NumTokens: 5000, Seed: 1, UseSkip: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(sys.Prototype, Config{Chains: 2, StepsPerSample: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	const q = `SELECT STRING FROM TOKEN WHERE TOK_ID = 123`
	opts := QueryOptions{Samples: 64, NoCache: true}
	got := testing.AllocsPerRun(50, func() {
		res, err := eng.Query(ctx, q, opts)
		if err != nil || res.Len() != 1 || res.Prob(0) != 1 || res.Trace != nil {
			t.Fatalf("certain answer: %v", err)
		}
	})
	t.Logf("certain_answer: %v allocs", got)
	if max, ok := budget["certain_answer"]; !ok || got > max {
		t.Errorf("a certain answer allocates %v, budget %v", got, max)
	}
}

// TestEpochAllocBudget is the allocation gate of a chain's epoch
// (testdata/alloc_budget.txt): with Query 1 and Query 4 subscribed under
// budgets they never reach and no ranked reader asking, nobody will read
// a snapshot, so an epoch — k walk-steps, the Δ drain, both views' folds,
// both estimators' samples and the health observations — copies no
// estimate. The epochs run on the chain goroutine inside one mailbox
// call, so no other epoch interleaves. Counts only, so this is a gate,
// not a trend.
func TestEpochAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget gate skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	budget := allocBudget(t)
	sys, err := exp.BuildNER(exp.Config{NumTokens: 5000, Seed: 1, UseSkip: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(sys.Prototype, Config{Chains: 1, StepsPerSample: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, sql := range []string{exp.Query1, exp.Query4} {
		defer holdView(t, eng, sql).detach()
	}
	c := eng.chains[0]
	var got float64
	if err := c.call(context.Background(), func() error {
		// Warm up until the answers' slots and the health rings have
		// seen the tuples the walk visits.
		for i := 0; i < 200; i++ {
			c.epoch()
		}
		got = testing.AllocsPerRun(500, c.epoch)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	t.Logf("epoch: %v allocs", got)
	if max, ok := budget["epoch"]; !ok || got > max {
		t.Errorf("an epoch no reader asked for allocates %v, budget %v", got, max)
	}
}

// TestRegisterAllocBudget is the allocation gate of a registry hit
// (testdata/alloc_budget.txt): with Query 1 or Query 4 already live on a
// chain, a second subscriber attaching to it looks the statement's
// fingerprint up and subscribes — it binds nothing, copies no tree and
// hashes nothing, because the plan cache bound the statement once. The
// registrations run on the chain goroutine inside one mailbox call, each
// detached again before the next. Counts only, so this is a gate, not a
// trend.
func TestRegisterAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget gate skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	budget := allocBudget(t)
	sys, err := exp.BuildNER(exp.Config{NumTokens: 5000, Seed: 1, UseSkip: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(sys.Prototype, Config{Chains: 1, StepsPerSample: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	c := eng.chains[0]
	for _, q := range []struct{ tag, sql string }{{"q1", exp.Query1}, {"q4", exp.Query4}} {
		defer holdView(t, eng, q.sql).detach()
		comp, _, err := eng.plans.CompileQuery(q.sql)
		if err != nil {
			t.Fatal(err)
		}
		reg := &registration{c: c, done: make(chan handoff, 1)}
		var got float64
		if err := c.call(context.Background(), func() error {
			got = testing.AllocsPerRun(200, func() {
				reg.id = viewID(eng.nextID.Add(1))
				if hit, err := c.register(reg, comp.Stmt, comp.Fingerprint, 1<<62); err != nil || !hit {
					t.Fatalf("register: hit=%v err=%v", hit, err)
				}
				c.reg.dropSub(reg.id)
			})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		t.Logf("register_hit_%s: %v allocs", q.tag, got)
		if max, ok := budget["register_hit_"+q.tag]; !ok || got > max {
			t.Errorf("a second subscriber to live %s allocates %v, budget %v", q.tag, got, max)
		}
	}
}

// TestLocalQueryAllocBudget is the allocation gate of a local query
// (testdata/alloc_budget.txt): an untraced, uncached PrivateMaterialized
// Engine.Query of paper Query 1 at a fixed seed clones the prototype,
// mounts the statement the plan cache prepared on the clone and walks
// its budget, so the count is the clone, the view and the walk — and it
// fails the moment a local query prepares its statement again. Each
// query repeats the same walk, and the least of 3 runs is taken, so an
// allocation from outside the query cannot land in the count. Counts
// only, so this is a gate, not a trend.
func TestLocalQueryAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget gate skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	budget := allocBudget(t)
	sys, err := exp.BuildNER(exp.Config{NumTokens: 5000, Seed: 1, UseSkip: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(sys.Prototype, Config{Mode: PrivateMaterialized, StepsPerSample: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	opts := QueryOptions{Samples: 4, NoCache: true}
	got := math.Inf(1)
	for range 3 {
		got = min(got, testing.AllocsPerRun(1, func() {
			res, err := eng.Query(ctx, exp.Query1, opts)
			if err != nil || res.Samples != 4 || res.Trace != nil {
				t.Fatalf("local query: %v", err)
			}
		}))
	}
	t.Logf("local_query: %v allocs", got)
	if max, ok := budget["local_query"]; !ok || got > max {
		t.Errorf("a local query allocates %v, budget %v", got, max)
	}
}
