package ivm_test

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"factordb/internal/exp"
	"factordb/internal/ivm"
	"factordb/internal/mcmc"
	"factordb/internal/ra"
	"factordb/internal/sqlparse"
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

// mallocs counts the heap allocations of one call of f. Unlike
// testing.AllocsPerRun it runs f exactly once: folding a delta twice is
// not the same work.
func mallocs(f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

// TestViewAllocBudget is the allocation gate of view maintenance
// (testdata/alloc_budget.txt): what mounting each paper query costs on a
// walked 5 000-token world, and what folding one sample's delta costs,
// through a private tree (NewView) and through a graph (Mount) alike — a
// view that shares nothing must not pay for the graph. Counts only, so
// this is a gate, not a trend.
func TestViewAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget gate skipped in -short mode")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	budget := allocBudget(t)
	sys, err := exp.BuildNER(exp.Config{NumTokens: 5000, Seed: 1, UseSkip: true})
	if err != nil {
		t.Fatal(err)
	}
	log, proposer, err := sys.NewChainWorld(0)
	if err != nil {
		t.Fatal(err)
	}
	sampler := mcmc.NewSampler(proposer, 3)
	sampler.Run(20000) // move off the all-O start
	log.Drain()

	const k, samples = 1000, 40
	queries := []struct{ tag, sql string }{
		{"q1", exp.Query1}, {"q2", exp.Query2}, {"q3", exp.Query3}, {"q4", exp.Query4},
	}
	type mounted struct {
		how   string
		view  *ivm.View
		graph *ivm.Graph
		fold  float64
	}
	views := make(map[string][]*mounted)
	for _, q := range queries {
		plan, _, err := sqlparse.Compile(q.sql)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := ra.Bind(log.DB(), plan)
		if err != nil {
			t.Fatal(err)
		}
		private, shared := &mounted{how: "NewView"}, &mounted{how: "Graph.Mount", graph: ivm.NewGraph()}
		for _, m := range []*mounted{private, shared} {
			got := mallocs(func() {
				if m.graph != nil {
					m.view, err = m.graph.Mount(bound)
				} else {
					m.view, err = ivm.NewView(bound)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("mount_%s via %s: %v allocs", q.tag, m.how, got)
			if max := budget["mount_"+q.tag]; got > max {
				t.Errorf("mounting %s via %s allocates %v, budget %v", q.tag, m.how, got, max)
			}
		}
		views[q.tag] = []*mounted{private, shared}
	}
	for i := 0; i < samples; i++ {
		sampler.Run(k)
		d := log.Drain()
		for _, ms := range views {
			for _, m := range ms {
				m.fold += mallocs(func() {
					if m.graph != nil {
						m.graph.NextRound()
					}
					m.view.Apply(d)
				})
			}
		}
	}
	for _, q := range queries {
		for _, m := range views[q.tag] {
			got := m.fold / samples
			t.Logf("fold_%s via %s: %v allocs per sample", q.tag, m.how, got)
			if max := budget["fold_"+q.tag]; got > max {
				t.Errorf("folding a sample into %s via %s allocates %v, budget %v", q.tag, m.how, got, max)
			}
		}
	}
}
