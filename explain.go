package factordb

import (
	"context"
	"fmt"
	"strings"
	"time"

	"factordb/internal/core"
	"factordb/internal/ra"
	"factordb/internal/relstore"
	"factordb/internal/sqlparse"
)

// explain answers an EXPLAIN <stmt> without sampling: it compiles the
// target through the shared plan cache (so an EXPLAIN warms the cache
// for the real query) and returns the diagnostic as ordinary Rows with
// a single PLAN column, one line per row — so EXPLAIN flows unchanged
// through the facade, the database/sql driver, and HTTP.
//
// For a SELECT the output is the canonical plan tree, both fingerprints
// (the canonical plan's and the schema-bound plan's), the result spec,
// the view-sharing decision, and whether the plan came from the cache.
// For DML it is the resolved mutation and the cache line.
func (db *DB) explain(ctx context.Context, sql string) (*Rows, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	stmt, err := sqlparse.ParseStatement(sql)
	if err != nil {
		db.eng.NoteBadQuery()
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	if stmt.Explain == nil {
		// Unreachable: the caller routed here because IsExplain(sql).
		return nil, fmt.Errorf("%w: not an EXPLAIN statement", ErrBadQuery)
	}
	target := sqlparse.ExplainTarget(sql)
	var lines []string
	switch {
	case stmt.Analyze && stmt.Explain.Select == nil:
		err = fmt.Errorf("EXPLAIN ANALYZE of DML is not supported (a write cannot be executed speculatively)")
	case stmt.Explain.Select != nil && !stmt.Analyze:
		lines, err = db.explainQuery(target)
	case stmt.Explain.Select == nil:
		lines, err = db.explainMutation(target)
	default:
		// EXPLAIN ANALYZE executes the target, so its errors span the full
		// facade taxonomy (closed, overloaded, canceled) and arrive fully
		// mapped — no blanket ErrBadQuery wrap.
		lines, err = db.explainAnalyze(ctx, target)
		if err != nil {
			return nil, err
		}
	}
	if err != nil {
		db.eng.NoteBadQuery()
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	cis := make([]core.TupleCI, len(lines))
	for i, line := range lines {
		cis[i] = core.TupleCI{
			Tuple: relstore.Tuple{relstore.String(line)},
			P:     1, Lo: 1, Hi: 1,
		}
	}
	return &Rows{
		cols:       []string{"PLAN"},
		cis:        cis,
		i:          -1,
		chains:     db.Chains(),
		epoch:      db.WriteEpoch(),
		confidence: db.opts.confidence,
		elapsed:    time.Since(start),
	}, nil
}

func (db *DB) explainQuery(target string) ([]string, error) {
	comp, hit, err := db.plans.CompileQuery(target)
	if err != nil {
		return nil, err
	}
	tree := ra.Render(comp.Plan)
	lines := []string{"plan fingerprint: " + comp.Fingerprint}

	// The bound fingerprint keys the engine's shared-view registries. It
	// needs a schema to bind against; a fresh clone of the prototype world
	// gives exactly the schema every chain binds with.
	if wl, _, werr := db.eng.CloneWorld(); werr != nil {
		lines = append(lines, "bound fingerprint: n/a ("+werr.Error()+")")
	} else if bound, berr := ra.Bind(wl.DB(), comp.Plan); berr != nil {
		lines = append(lines, "bound fingerprint: n/a ("+berr.Error()+")")
	} else {
		if bound.Source != comp.Plan {
			// Bind projected join inputs onto the columns the query reads;
			// show the narrow tree, which is the one every evaluator runs.
			tree = append(ra.Render(bound.Source),
				"column pruning: join inputs projected onto the columns read above them")
		}
		bfp := bound.Fingerprint()
		lines = append(lines, "bound fingerprint: "+bfp)
		if live, total := db.eng.LiveViewChains(bfp); live > 0 {
			lines = append(lines, fmt.Sprintf(
				"view sharing: reuse — a view with this fingerprint is live on %d/%d chains", live, total))
		} else {
			lines = append(lines, fmt.Sprintf(
				"view sharing: fresh — no live view with this fingerprint on any of %d chains", total))
		}
	}
	lines = append(lines, "result spec: "+specString(comp.Spec))
	lines = append(lines, "plan cache: "+hitMiss(hit))
	return append(tree, lines...), nil
}

// explainAnalyze is EXPLAIN ANALYZE SELECT: compile through the shared
// plan cache, execute the pushed-down pipeline once per chain with
// per-operator instrumentation, and render the annotated plan — actual vs
// estimated rows, per-operator self time and its share of total, and any
// pushdown residue. In served mode every chain runs the pipeline against
// its own world and the counters are merged; the local modes run it on a
// fresh clone of the prototype world.
func (db *DB) explainAnalyze(ctx context.Context, target string) ([]string, error) {
	comp, hit, err := db.plans.CompileQuery(target)
	if err != nil {
		db.eng.NoteBadQuery()
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	st, err := db.eng.Analyze(ctx, comp.Plan)
	if err != nil {
		return nil, mapServeErr(err)
	}
	lines := st.Render()
	lines = append(lines,
		"plan fingerprint: "+comp.Fingerprint,
		fmt.Sprintf("analyzed chains: %d", db.Chains()),
		"plan cache: "+hitMiss(hit))
	return lines, nil
}

func (db *DB) explainMutation(target string) ([]string, error) {
	mut, hit, err := db.plans.CompileMutation(target)
	if err != nil {
		return nil, err
	}
	return []string{mut.String(), "plan cache: " + hitMiss(hit)}, nil
}

func hitMiss(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// specString renders the result-level ordering and truncation — the
// clauses applied to the merged probabilistic answer rather than inside
// the per-world plan.
func specString(spec ra.ResultSpec) string {
	if spec.IsDefault() {
		return "default (sort by P desc)"
	}
	var sb strings.Builder
	sb.WriteString("order by ")
	for i, o := range spec.Order {
		if i > 0 {
			sb.WriteString(", ")
		}
		if o.ByProb {
			sb.WriteString("P")
		} else {
			fmt.Fprintf(&sb, "column %d", o.Index)
		}
		if o.Desc {
			sb.WriteString(" desc")
		} else {
			sb.WriteString(" asc")
		}
	}
	if spec.Limit > 0 {
		fmt.Fprintf(&sb, "; limit %d", spec.Limit)
	}
	return sb.String()
}
