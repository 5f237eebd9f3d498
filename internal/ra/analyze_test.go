package ra

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"factordb/internal/relstore"
)

// expectedAnalyzeRows computes, in the same pre-order AnalyzeStream
// indexes its nodes, the per-operator output multiplicity the streaming
// executor must report: matEval of each operator's subtree, except that
// subtrees the executor provably never runs (the probe side of a join
// whose build input is empty) report zero — exactly the "never executed"
// convention of EXPLAIN ANALYZE. A selection directly on a scan is one
// operator, as the executor fuses it.
func expectedAnalyzeRows(t *testing.T, b *Bound, live bool, out *[]int64) {
	t.Helper()
	var total int64
	if live {
		bag, err := matEval(b)
		if err != nil {
			t.Fatalf("matEval: %v", err)
		}
		total = bag.Size()
	}
	*out = append(*out, total)
	switch {
	case b.Kind == KSelect && b.Children[0].Kind == KScan:
		// Fused: the scan is not a node of its own.
	case b.Kind == KJoin:
		rightBag, err := matEval(b.Children[1])
		if err != nil {
			t.Fatalf("matEval: %v", err)
		}
		// The probe side only runs when the build table is non-empty.
		expectedAnalyzeRows(t, b.Children[0], live && rightBag.Size() > 0, out)
		expectedAnalyzeRows(t, b.Children[1], live, out)
	default:
		for _, c := range b.Children {
			expectedAnalyzeRows(t, c, live, out)
		}
	}
}

// TestAnalyzeRowsMatchOracle sweeps the full operator-combination plan
// set over randomized worlds and asserts that every operator's actual
// row count reported by AnalyzeStream equals the materialized reference
// evaluation of that operator's subtree.
func TestAnalyzeRowsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for world := 0; world < 6; world++ {
		rows := 24
		if world == 0 {
			rows = 0
		}
		db := sweepWorld(rng, rows)
		names := make([]string, 0)
		plans := sweepPlans()
		for name := range plans {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			bound, err := Bind(db, plans[name])
			if err != nil {
				t.Fatalf("world %d %s: bind: %v", world, name, err)
			}
			it, owned, st, err := AnalyzeStream(bound)
			if err != nil {
				t.Fatalf("world %d %s: AnalyzeStream: %v", world, name, err)
			}
			got := NewBag(bound.Schema)
			it(func(tp relstore.Tuple, n int64) bool {
				if owned {
					got.Add(tp, n)
				} else {
					got.Add(tp.Clone(), n)
				}
				return true
			})
			// The instrumented pipeline must produce exactly the plain
			// pipeline's (= the oracle's) result.
			want, err := matEval(bound)
			if err != nil {
				t.Fatalf("world %d %s: matEval: %v", world, name, err)
			}
			if !got.Equal(want) {
				t.Errorf("world %d %s: analyze pipeline result differs\n got: %v\nwant: %v",
					world, name, dumpBag(got), dumpBag(want))
			}
			var expect []int64
			expectedAnalyzeRows(t, bound, true, &expect)
			if len(expect) != len(st.Nodes) {
				t.Fatalf("world %d %s: %d instrumented nodes, oracle walked %d",
					world, name, len(st.Nodes), len(expect))
			}
			for i, nd := range st.Nodes {
				if nd.Rows != expect[i] {
					t.Errorf("world %d %s: node %d (%s): actual rows %d, oracle %d",
						world, name, i, nd.Name, nd.Rows, expect[i])
				}
			}
			if st.Runs != 1 {
				t.Errorf("world %d %s: runs = %d, want 1", world, name, st.Runs)
			}
			// A second run accumulates: every count doubles.
			it(func(tp relstore.Tuple, n int64) bool { return true })
			if st.Runs != 2 {
				t.Errorf("world %d %s: runs after re-run = %d, want 2", world, name, st.Runs)
			}
			for i, nd := range st.Nodes {
				if nd.Rows != 2*expect[i] {
					t.Errorf("world %d %s: node %d rows after re-run = %d, want %d",
						world, name, i, nd.Rows, 2*expect[i])
				}
			}
		}
	}
}

// TestAnalyzeRenderAndMerge pins the render shape (tree lines with
// actual/estimated rows and a totals line) and cross-chain merging.
func TestAnalyzeRenderAndMerge(t *testing.T) {
	db := sweepWorld(rand.New(rand.NewSource(5)), 24)
	plan := sweepPlans()["nested-join-select"]
	bound, err := Bind(db, plan)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *StreamStats {
		it, _, st, err := AnalyzeStream(bound)
		if err != nil {
			t.Fatal(err)
		}
		it(func(relstore.Tuple, int64) bool { return true })
		return st
	}
	a, b := run(), run()
	if err := a.Merge(b); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if a.Runs != 2 {
		t.Fatalf("merged runs = %d, want 2", a.Runs)
	}
	for i := range a.Nodes {
		if a.Nodes[i].Rows != 2*b.Nodes[i].Rows {
			t.Errorf("node %d merged rows = %d, want %d", i, a.Nodes[i].Rows, 2*b.Nodes[i].Rows)
		}
	}
	lines := a.Render()
	if len(lines) != len(a.Nodes)+1 {
		t.Fatalf("render produced %d lines, want %d", len(lines), len(a.Nodes)+1)
	}
	for i, nd := range a.Nodes {
		if !strings.Contains(lines[i], "actual rows=") || !strings.Contains(lines[i], "est rows=") {
			t.Errorf("line %d missing row annotation: %q", i, lines[i])
		}
		if !strings.HasPrefix(lines[i], strings.Repeat("  ", nd.Depth)+nd.Name) {
			t.Errorf("line %d not indented as depth-%d %s: %q", i, nd.Depth, nd.Name, lines[i])
		}
	}
	if !strings.HasPrefix(lines[len(lines)-1], "analyze: runs=2") {
		t.Errorf("totals line = %q", lines[len(lines)-1])
	}
	// A selection on a scan runs inside it, and says so.
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "pushdown: filter fused into scan") {
		t.Errorf("render lacks pushdown residue annotation:\n%s", joined)
	}
	// Merging mismatched shapes must fail, not corrupt.
	other, err := Bind(db, sweepPlans()["scan"])
	if err != nil {
		t.Fatal(err)
	}
	_, _, st2, err := AnalyzeStream(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(st2); err == nil {
		t.Error("merge of mismatched plan shapes succeeded")
	}
}
