package serve

import (
	"context"
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
	eng, err := New(sys, Config{Chains: 1, StepsPerSample: 100, Seed: 1})
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
}
