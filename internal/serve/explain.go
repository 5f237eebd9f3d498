package serve

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"factordb/internal/core"
	"factordb/internal/ra"
	"factordb/internal/relstore"
	"factordb/internal/sqlparse"
)

// explain answers an EXPLAIN <stmt> without sampling: it compiles the
// target through the plan cache under the target's own text (so an
// EXPLAIN warms the cache for the real query), binding opts.Args into
// it, and returns the diagnostic as an ordinary answer with a single
// PLAN column, one line per tuple — so EXPLAIN flows unchanged through
// Rows, the database/sql driver, and HTTP. It is never traced, cached or
// admitted, and ignores the sample budget.
//
// For a SELECT the output is the plan tree as bound, a line per join
// input a view filters by the keys the other input's evidence reaches,
// the bound statement's fingerprint, the view-sharing decision — or,
// for a plan that reads no hidden column, the line that marks it
// certain — the result spec, and whether the target came from the plan
// cache. For DML it is the lowered mutation and the cache line.
func (e *Engine) explain(ctx context.Context, sql string, x *sqlparse.Explain, opts QueryOptions) (*Result, error) {
	start := time.Now()
	var lines []string
	var err error
	switch {
	case x.Analyze && !x.Query:
		err = errors.New("EXPLAIN ANALYZE of DML is not supported (a write cannot be executed speculatively)")
	case x.Analyze:
		// EXPLAIN ANALYZE executes the target, so its errors span closed,
		// canceled and bad query, and arrive fully mapped.
		if lines, err = e.explainAnalyze(ctx, x.Target, opts.Args); err != nil {
			return nil, err
		}
	case x.Query:
		lines, err = e.explainQuery(x.Target, opts.Args)
	default:
		lines, err = e.explainMutation(x.Target, opts.Args)
	}
	if err != nil {
		e.m.failed.Inc()
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	tuples := make([]core.TupleCI, len(lines))
	for i, line := range lines {
		tuples[i] = core.TupleCI{Tuple: relstore.Tuple{relstore.String(line)}, P: 1, Lo: 1, Hi: 1}
	}
	return &Result{
		SQL:        sql,
		Chains:     e.cfg.Chains,
		Epoch:      e.dataEpoch.Load(),
		Confidence: cmp.Or(opts.Confidence, DefaultConfidence),
		Elapsed:    time.Since(start),
		cols:       []string{"PLAN"},
		tuples:     tuples,
		wire:       new(encoding),
	}, nil
}

// compileTarget compiles EXPLAIN's target through the plan cache and
// binds args into it; the second result reports a plan-cache hit.
func (e *Engine) compileTarget(target string, use sqlparse.Use, args []any) (*sqlparse.Compiled, bool, error) {
	c, hit, err := e.plans.Lookup(target, use)
	if err == nil {
		c, err = c.Bind(args)
	}
	return c, hit, err
}

func (e *Engine) explainQuery(target string, args []any) ([]string, error) {
	comp, hit, err := e.compileTarget(target, sqlparse.UseQuery, args)
	if err != nil {
		return nil, err
	}
	tree := ra.Render(comp.Stmt.Source) // the narrow tree every evaluator runs
	if comp.Stmt.Pruned {
		tree = append(tree, "column pruning: join inputs projected onto the columns read above them")
	}
	if !comp.Stmt.Certain {
		tree = keyFilterLines(comp.Stmt, tree)
	}
	return append(tree, "bound fingerprint: "+comp.Fingerprint, e.evaluation(comp),
		"result spec: "+specString(comp.Spec), "plan cache: "+hitMiss(hit)), nil
}

// keyFilterLines appends one line per key filter (ra.KeyFilter) a view
// of b builds, children first.
func keyFilterLines(b *ra.Bound, lines []string) []string {
	for _, c := range b.Children {
		lines = keyFilterLines(c, lines)
	}
	for i, f := range b.KeyFilters {
		if f != nil {
			lines = append(lines, fmt.Sprintf("key filter: %s side keeps %s", [2]string{"left", "right"}[i], f))
		}
	}
	return lines
}

// evaluation is EXPLAIN's line on how a query arriving now would be
// answered: a certain plan by one evaluation, any other by the views
// live under its fingerprint, or by fresh ones.
func (e *Engine) evaluation(comp *sqlparse.Compiled) string {
	if comp.Stmt.Certain {
		return "certain: reads no hidden column — one evaluation, every tuple at P = 1, no view"
	}
	live := 0
	for _, c := range e.chains {
		if c.reg.viewSeries(comp.Fingerprint) != nil {
			live++
		}
	}
	if live > 0 {
		return fmt.Sprintf("view sharing: reuse — a view with this fingerprint is live on %d/%d chains", live, e.cfg.Chains)
	}
	return fmt.Sprintf("view sharing: fresh — no live view with this fingerprint on any of %d chains", e.cfg.Chains)
}

// explainAnalyze is EXPLAIN ANALYZE SELECT: compile the target, execute
// its streaming pipeline with per-operator instrumentation (see
// analyze), and render the annotated plan — actual vs estimated rows,
// per-operator self time and its share of total, and any filter fused
// into a scan or a join.
func (e *Engine) explainAnalyze(ctx context.Context, target string, args []any) ([]string, error) {
	comp, hit, err := e.compileTarget(target, sqlparse.UseQuery, args)
	if err != nil {
		e.m.failed.Inc()
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	st, err := e.analyze(ctx, comp.Stmt)
	if err != nil {
		if !errors.Is(err, ErrClosed) && !errors.Is(err, ctx.Err()) {
			e.m.failed.Inc()
			err = fmt.Errorf("%w: %v", ErrBadQuery, err)
		}
		return nil, err
	}
	return append(st.Render(),
		"bound fingerprint: "+comp.Fingerprint,
		fmt.Sprintf("analyzed chains: %d", e.cfg.Chains),
		"plan cache: "+hitMiss(hit)), nil
}

func (e *Engine) explainMutation(target string, args []any) ([]string, error) {
	comp, hit, err := e.compileTarget(target, sqlparse.UseExec, args)
	if err != nil {
		return nil, err
	}
	return []string{comp.Mutation.String(), "plan cache: " + hitMiss(hit)}, nil
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

// analyze runs the pipeline on every chain in the pool. Each chain
// executes it against its own world at an epoch boundary, so the
// aggregated actual-row counts are a cross-chain sample of the plan's
// runtime behavior — per-chain variance in the possible worlds averages
// out exactly the way the engine's marginal estimates do. A local engine
// has no chain: the pipeline runs on the prototype, which every query's
// private chain clones, under the write lock's read side as a certain
// read does, so it counts one committed world's rows and copies nothing.
func (e *Engine) analyze(ctx context.Context, stmt *ra.Bound) (*ra.StreamStats, error) {
	if len(e.chains) == 0 {
		e.writeMu.RLock()
		defer e.writeMu.RUnlock()
		return analyzePlan(e.src.WorldDB(), stmt)
	}
	stats := make([]*ra.StreamStats, len(e.chains))
	if err := e.each(ctx, func(i int, c *chain) (err error) {
		stats[i], err = analyzePlan(c.log.DB(), stmt)
		return err
	}); err != nil {
		return nil, err
	}
	total := stats[0]
	for _, st := range stats[1:] {
		if err := total.Merge(st); err != nil {
			return nil, err
		}
	}
	return total, nil
}

// analyzePlan mounts stmt on db and runs the instrumented streaming
// pipeline once, returning per-operator counters.
func analyzePlan(db *relstore.DB, stmt *ra.Bound) (*ra.StreamStats, error) {
	bound, err := stmt.On(db)
	if err != nil {
		return nil, err
	}
	it, _, st, err := ra.AnalyzeStream(bound)
	if err != nil {
		return nil, err
	}
	it(func(relstore.Tuple, int64) bool { return true })
	return st, nil
}
