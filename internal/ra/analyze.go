package ra

import (
	"cmp"
	"fmt"
	"strings"
	"time"

	"factordb/internal/relstore"
)

// This file is the EXPLAIN ANALYZE substrate: AnalyzeStream compiles the
// same pipeline Stream does, but threads a wrapping compiler through
// compileNode so every parent/child edge carries a row/time recorder.
// The plain Stream path never sees any of this — the recorder only
// exists on pipelines compiled here, so the uninstrumented hot path
// keeps its allocation profile untouched.

// OpStats are the observed per-operator counters of one instrumented
// pipeline, accumulated across every run of the iterator.
type OpStats struct {
	// Name is the operator header, e.g. "Join[t.TOK_ID=m.TOK_ID]".
	Name string `json:"name"`
	// Residue describes a filter fused into this node: a selection run
	// inside the scan below it, or a join's non-equi filter.
	Residue string `json:"residue,omitempty"`
	// Depth is the node's depth in the operator tree (root = 0), Parent
	// its parent's index in pre-order (-1 for the root).
	Depth  int `json:"depth"`
	Parent int `json:"parent"`
	// EstRows is the optimizer's pre-execution cardinality estimate for
	// one run; Rows is the observed output multiplicity summed over runs.
	EstRows int64 `json:"est_rows"`
	Rows    int64 `json:"rows"`
	// Yields counts yield calls (row batches of one); a tuple whose
	// multiplicity arrives split across calls counts once per call.
	Yields int64 `json:"yields"`
	// SelfNS approximates wall time attributable to this operator: time
	// between instrumentation stamps is charged to the node that was
	// producing when the stamp fired.
	SelfNS int64 `json:"self_ns"`
}

// StreamStats is the analyze recorder for one compiled pipeline. Nodes
// are its operators in pre-order: the bound tree's nodes, except that a
// selection fused into the scan below it is one node. It is not safe for
// concurrent runs of the iterator; analyze pipelines are run from a
// single goroutine.
type StreamStats struct {
	Nodes []OpStats `json:"nodes"`
	// Runs counts iterator invocations; in sampling evaluators one run
	// corresponds to one world sample.
	Runs int64 `json:"runs"`
	// WallNS is total wall time spent inside the pipeline across runs.
	WallNS int64 `json:"wall_ns"`

	last time.Time // shared edge-stamping clock, valid during a run
}

// AnalyzeStream compiles b the way Stream does — same tree, same
// operator constructors, same ownership rules — but with per-operator
// instrumentation interposed at every edge. The returned stats object
// accumulates over however many times the iterator is invoked.
func AnalyzeStream(b *Bound) (Iterator, bool, *StreamStats, error) {
	st := &StreamStats{}
	index := make(map[*Bound]int)
	var walk func(n *Bound, depth, parent int)
	walk = func(n *Bound, depth, parent int) {
		index[n] = len(st.Nodes)
		st.Nodes = append(st.Nodes, OpStats{
			Name:    boundName(cmp.Or(fusedScan(n), n)),
			Residue: boundResidue(n),
			Depth:   depth,
			Parent:  parent,
			EstRows: int64(estimateRows(n)),
		})
		if fusedScan(n) == nil {
			for _, c := range n.Children {
				walk(c, depth+1, index[n])
			}
		}
	}
	walk(b, 0, -1)

	var compile streamCompiler
	compile = func(n *Bound) (Iterator, bool, error) {
		idx := index[n]
		parent := st.Nodes[idx].Parent
		inner, owned, err := compileNode(n, compile)
		if err != nil {
			return nil, false, err
		}
		wrapped := func(yield func(relstore.Tuple, int64) bool) {
			inner(func(t relstore.Tuple, n int64) bool {
				// Time since the last stamp was spent producing this row.
				now := time.Now()
				nd := &st.Nodes[idx]
				nd.SelfNS += now.Sub(st.last).Nanoseconds()
				nd.Rows += n
				nd.Yields++
				st.last = now
				ok := yield(t, n)
				// Time inside the consumer is charged to the parent (the
				// operator that consumed the row); for the root it stays
				// with the caller and is folded into the root at run end.
				now = time.Now()
				if parent >= 0 {
					st.Nodes[parent].SelfNS += now.Sub(st.last).Nanoseconds()
				}
				st.last = now
				return ok
			})
		}
		return wrapped, owned, nil
	}
	it, owned, err := compile(b)
	if err != nil {
		return nil, false, nil, err
	}
	run := func(yield func(relstore.Tuple, int64) bool) {
		start := time.Now()
		st.last = start
		it(yield)
		end := time.Now()
		// Trailing time — sink consumption of the final row plus operator
		// teardown (top-k flush, empty-tail scans) — lands on the root.
		st.Nodes[0].SelfNS += end.Sub(st.last).Nanoseconds()
		st.Runs++
		st.WallNS += end.Sub(start).Nanoseconds()
	}
	return run, owned, st, nil
}

// Merge folds another recorder for the same plan shape into st — the
// served engine aggregates per-chain analyze runs this way. Shapes must
// match (same SQL bound on every chain guarantees it); mismatched merges
// return an error rather than corrupting counters.
func (st *StreamStats) Merge(other *StreamStats) error {
	if len(st.Nodes) != len(other.Nodes) {
		return fmt.Errorf("ra: merge of mismatched analyze stats (%d vs %d nodes)", len(st.Nodes), len(other.Nodes))
	}
	for i := range st.Nodes {
		if st.Nodes[i].Name != other.Nodes[i].Name {
			return fmt.Errorf("ra: merge of mismatched analyze stats (node %d: %q vs %q)",
				i, st.Nodes[i].Name, other.Nodes[i].Name)
		}
		st.Nodes[i].Rows += other.Nodes[i].Rows
		st.Nodes[i].Yields += other.Nodes[i].Yields
		st.Nodes[i].SelfNS += other.Nodes[i].SelfNS
	}
	st.Runs += other.Runs
	st.WallNS += other.WallNS
	return nil
}

// Render pretty-prints the annotated plan: the operator tree with actual
// vs estimated rows, per-operator self time, and each operator's share
// of total pipeline time, followed by a totals line.
// Estimates are per run, so actuals are normalized by run count for the
// comparison.
func (st *StreamStats) Render() []string {
	total := st.WallNS
	if total <= 0 {
		total = 1
	}
	runs := st.Runs
	if runs <= 0 {
		runs = 1
	}
	lines := make([]string, 0, len(st.Nodes)+1)
	for i := range st.Nodes {
		nd := &st.Nodes[i]
		var sb strings.Builder
		sb.WriteString(strings.Repeat("  ", nd.Depth))
		sb.WriteString(nd.Name)
		fmt.Fprintf(&sb, "  (actual rows=%d est rows=%d", nd.Rows/runs, nd.EstRows)
		fmt.Fprintf(&sb, " time=%s %.1f%%", time.Duration(nd.SelfNS).Round(time.Microsecond),
			100*float64(nd.SelfNS)/float64(total))
		sb.WriteString(")")
		if nd.Residue != "" {
			sb.WriteString("  [pushdown: " + nd.Residue + "]")
		}
		lines = append(lines, sb.String())
	}
	lines = append(lines, fmt.Sprintf("analyze: runs=%d total=%s",
		st.Runs, time.Duration(st.WallNS).Round(time.Microsecond)))
	return lines
}

// boundName renders a bound node's operator header, mirroring Render's
// plan headers but over the operators EXPLAIN ANALYZE executes.
func boundName(b *Bound) string {
	switch b.Kind {
	case KScan:
		if b.Alias != "" && b.Alias != b.Table {
			return fmt.Sprintf("Scan[%s %s]", b.Table, b.Alias)
		}
		return fmt.Sprintf("Scan[%s]", b.Table)
	case KSelect:
		return "Select"
	case KProject:
		cols := make([]string, len(b.Schema.Cols))
		for i, c := range b.Schema.Cols {
			cols[i] = c.Ref.String()
		}
		return fmt.Sprintf("Project[%s]", strings.Join(cols, ", "))
	case KJoin:
		keys := make([]string, len(b.LeftKey))
		ls, rs := b.Children[0].Schema, b.Children[1].Schema
		for i := range b.LeftKey {
			keys[i] = ls.Cols[b.LeftKey[i]].Ref.String() + "=" + rs.Cols[b.RightKey[i]].Ref.String()
		}
		return fmt.Sprintf("Join[%s]", strings.Join(keys, ", "))
	case KGroupAgg:
		group := make([]string, len(b.GroupIdx))
		cs := b.Children[0].Schema
		for i, j := range b.GroupIdx {
			group[i] = cs.Cols[j].Ref.String()
		}
		aggs := make([]string, len(b.Aggs))
		for i, a := range b.Aggs {
			aggs[i] = fmt.Sprintf("%s AS %s", a.Fn, a.As)
		}
		return fmt.Sprintf("GroupAgg[%s; %s]", strings.Join(group, ", "), strings.Join(aggs, ", "))
	case KDistinct:
		return "Distinct"
	case KOrderLimit:
		return fmt.Sprintf("OrderLimit[limit %d]", b.Limit)
	}
	return fmt.Sprintf("Bound[%d]", b.Kind)
}

// boundResidue names the filter fused into the node's operator; bound
// expressions don't carry their source spelling.
func boundResidue(b *Bound) string {
	switch {
	case fusedScan(b) != nil:
		return "filter fused into scan"
	case b.Kind == KJoin && b.Filter != nil:
		return "non-equi filter on join"
	}
	return ""
}
