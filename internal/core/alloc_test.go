package core

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
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

// published keeps measured snapshots on the heap, as a chain's snapshot
// cell does, so escape analysis cannot flatter the count.
var published *Snapshot

// TestSnapshotAllocBudget is the allocation gate of a serving chain's
// per-epoch publish (testdata/alloc_budget.txt): snapshotting an
// estimator copies its counts and shares its dictionary, so the cost is
// the same pinned count at 16 tuples and at 1 024 — and counting a sample
// whose tuples are all known allocates nothing, nor does a tuple leaving
// the answer and re-entering it, nor a fold that moves known tuples in
// and out before the next sample. Counts only, so this is a gate, not a
// trend.
func TestSnapshotAllocBudget(t *testing.T) {
	budget := allocBudget(t)
	var snapAllocs []float64
	for _, n := range []int{16, 1024} {
		vals := make([]string, n)
		for i := range vals {
			vals[i] = fmt.Sprintf("t%d", i)
		}
		ans := stringAnswer(vals...)
		e := NewEstimator()
		e.AddSample(ans)

		got := testing.AllocsPerRun(50, func() { published = e.Snapshot() })
		t.Logf("snapshot_%d: %v allocs", n, got)
		if max, ok := budget[fmt.Sprintf("snapshot_%d", n)]; !ok || got > max {
			t.Errorf("snapshotting %d tuples allocates %v, budget %v", n, got, max)
		}
		snapAllocs = append(snapAllocs, got)

		add := testing.AllocsPerRun(50, func() { e.AddSample(ans) })
		t.Logf("add_known (%d tuples): %v allocs", n, add)
		if max, ok := budget["add_known"]; !ok || add > max {
			t.Errorf("AddSample of %d known tuples allocates %v, budget %v", n, add, max)
		}

		first := ans.Tuple(0)
		reenter := testing.AllocsPerRun(50, func() {
			ans.Add(first, -1)
			e.AddSample(ans)
			ans.Add(first, 1)
			e.AddSample(ans)
		})
		t.Logf("reenter (%d tuples): %v allocs", n, reenter)
		if max, ok := budget["reenter"]; !ok || reenter > max {
			t.Errorf("a tuple leaving and re-entering an answer of %d allocates %v, budget %v", n, reenter, max)
		}

		// Swap the two halves of the answer in and out, a sample apart.
		for s := n / 2; s < n; s++ {
			ans.Add(ans.Tuple(int32(s)), -1)
		}
		e.AddSample(ans)
		in := true
		fold := testing.AllocsPerRun(50, func() {
			for s := range int32(n) {
				sign := int64(1)
				if (int(s) < n/2) == in {
					sign = -1
				}
				ans.Add(ans.Tuple(s), sign)
			}
			in = !in
			e.AddSample(ans)
		})
		t.Logf("fold_delta (%d tuples): %v allocs", n, fold)
		if max, ok := budget["fold_delta"]; !ok || fold > max {
			t.Errorf("AddSample after a fold over %d known tuples allocates %v, budget %v", n, fold, max)
		}
	}
	if snapAllocs[0] != snapAllocs[1] {
		t.Errorf("snapshot cost grows with the answer: %v allocs at 16 tuples, %v at 1024", snapAllocs[0], snapAllocs[1])
	}
}
