package mcmc_test

import (
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"factordb/internal/core"
	"factordb/internal/exp"
)

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

// TestWalkAllocBudget is the allocation gate of the Metropolis-Hastings
// loop (testdata/alloc_budget.txt): proposing allocates nothing, so a
// rejected or no-op proposal is free; committing a real flip and draining
// its Δ allocates nothing either, once the log's buffers are at size; and
// a whole materialized sample stays under a pinned ceiling. Allocation counts are
// deterministic, so this is a gate, not a trend.
func TestWalkAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget gate skipped in -short mode")
	}
	budget := allocBudget(t)
	sys, err := exp.BuildNER(exp.Config{NumTokens: 5000, Seed: 1, UseSkip: true})
	if err != nil {
		t.Fatal(err)
	}
	log, proposer, err := sys.NewChainWorld(0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	const batch = 64
	commit := func() {
		for i := 0; i < batch; i++ {
			proposer.Propose(rng)
			proposer.Accept()
		}
		log.Drain()
	}
	for i := 0; i < 30; i++ {
		commit() // move off the all-O start; bring the Δ buffers to size
	}

	if got, max := testing.AllocsPerRun(5000, func() { proposer.Propose(rng) }), budget["propose"]; got > max {
		t.Errorf("Propose allocates %v per proposal, budget %v", got, max)
	}

	// Every proposal is committed, whatever its score: roughly one in
	// nine re-proposes the current label (a no-op), the rest are real
	// flips, counted by the change log. Allocations of the batch and its
	// Drain together must not exceed the budget per real flip, so a Drain
	// that allocates shows as surely as a flip that allocates twice.
	for round := 0; round < 40; round++ {
		var before int64
		got := testing.AllocsPerRun(1, func() {
			before = log.Updates()
			commit()
		})
		flips := float64(log.Updates() - before)
		if max := flips * budget["flip_and_drain"]; got > max {
			t.Fatalf("round %d: %v allocations for %v real flips and their Drain, budget %v", round, got, flips, max)
		}
	}

	ch, err := sys.NewChain(core.Materialized, exp.Query2, 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	ch.Evaluator.Burn(20000)
	got := testing.AllocsPerRun(50, func() {
		if err := ch.Evaluator.CollectSample(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("materialized CollectSample (k=1000, Query 2, 5k tokens): %v allocs", got)
	if max := budget["collect_sample_q2"]; got > max {
		t.Errorf("CollectSample allocates %v per sample, budget %v", got, max)
	}
}
