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
// whose tuples are all known allocates nothing. Counts only, so this is a
// gate, not a trend.
func TestSnapshotAllocBudget(t *testing.T) {
	budget := allocBudget(t)
	var snapAllocs []float64
	for _, n := range []int{16, 1024} {
		vals := make([]string, n)
		for i := range vals {
			vals[i] = fmt.Sprintf("t%d", i)
		}
		bag := stringBag(vals...)
		e := NewEstimator()
		e.AddSample(bag)

		got := testing.AllocsPerRun(50, func() { published = e.Snapshot() })
		t.Logf("snapshot_%d: %v allocs", n, got)
		if max, ok := budget[fmt.Sprintf("snapshot_%d", n)]; !ok || got > max {
			t.Errorf("snapshotting %d tuples allocates %v, budget %v", n, got, max)
		}
		snapAllocs = append(snapAllocs, got)

		add := testing.AllocsPerRun(50, func() { e.AddSample(bag) })
		t.Logf("add_known (%d tuples): %v allocs", n, add)
		if max, ok := budget["add_known"]; !ok || add > max {
			t.Errorf("AddSample of %d known tuples allocates %v, budget %v", n, add, max)
		}
	}
	if snapAllocs[0] != snapAllocs[1] {
		t.Errorf("snapshot cost grows with the answer: %v allocs at 16 tuples, %v at 1024", snapAllocs[0], snapAllocs[1])
	}
}
