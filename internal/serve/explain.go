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
// For a SELECT the output is the plan tree as bound, both fingerprints
// (the canonical plan's and the schema-bound plan's), the result spec,
// the view-sharing decision, and whether the target came from the plan
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
	tree := ra.Render(comp.Plan)
	lines := []string{"plan fingerprint: " + comp.Fingerprint}

	// The bound fingerprint keys the shared-view registries. It needs a
	// schema to bind against; a fresh clone of the prototype world gives
	// exactly the schema every chain binds with.
	if wl, _, werr := e.cloneWorld(); werr != nil {
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
		if live, total := e.liveViewChains(bfp); live > 0 {
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

// explainAnalyze is EXPLAIN ANALYZE SELECT: compile the target, execute
// the pushed-down pipeline once per world copy the strategy samples from
// with per-operator instrumentation, and render the annotated plan —
// actual vs estimated rows, per-operator self time and its share of
// total, and any pushdown residue.
func (e *Engine) explainAnalyze(ctx context.Context, target string, args []any) ([]string, error) {
	comp, hit, err := e.compileTarget(target, sqlparse.UseQuery, args)
	if err != nil {
		e.m.failed.Inc()
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	st, err := e.strat.analyze(ctx, comp.Plan)
	if err != nil {
		if !errors.Is(err, ErrClosed) && !errors.Is(err, ctx.Err()) {
			e.m.failed.Inc()
			err = fmt.Errorf("%w: %v", ErrBadQuery, err)
		}
		return nil, err
	}
	return append(st.Render(),
		"plan fingerprint: "+comp.Fingerprint,
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

// liveViewChains reports on how many chains of the pool a materialized
// view with the given bound-plan fingerprint is currently live, plus the
// pool size — the EXPLAIN view-sharing decision: a query arriving now
// with that fingerprint would subscribe to those existing views instead
// of mounting fresh ones.
func (e *Engine) liveViewChains(fp string) (live, total int) {
	for _, c := range e.chains {
		for _, f := range c.reg.liveFingerprints() {
			if f == fp {
				live++
				break
			}
		}
	}
	return live, e.cfg.Chains
}

// analyze runs the pipeline on every chain in the pool. Each chain
// executes it against its own world at an epoch boundary, so the
// aggregated actual-row counts are a cross-chain sample of the plan's
// runtime behavior — per-chain variance in the possible worlds averages
// out exactly the way the engine's marginal estimates do.
func (p pool) analyze(ctx context.Context, plan ra.Plan) (*ra.StreamStats, error) {
	replies := make([]analyzeReply, len(p.chains))
	done := make(chan struct{}, len(p.chains))
	for i, c := range p.chains {
		go func(i int, c *chain) {
			replies[i] = c.analyze(ctx, plan)
			done <- struct{}{}
		}(i, c)
	}
	for range p.chains {
		<-done
	}
	var total *ra.StreamStats
	for i := range replies {
		if err := replies[i].err; err != nil {
			return nil, err
		}
		if total == nil {
			total = replies[i].stats
		} else if err := total.Merge(replies[i].stats); err != nil {
			return nil, err
		}
	}
	return total, nil
}

// analyze delivers an analyzeReq to the chain goroutine, honoring ctx
// and engine shutdown.
func (c *chain) analyze(ctx context.Context, plan ra.Plan) analyzeReply {
	req := analyzeReq{plan: plan, reply: make(chan analyzeReply, 1)}
	select {
	case c.ctl <- req:
	case <-c.done:
		return analyzeReply{err: ErrClosed}
	case <-ctx.Done():
		return analyzeReply{err: ctx.Err()}
	}
	select {
	case rep := <-req.reply:
		return rep
	case <-c.done:
		return analyzeReply{err: ErrClosed}
	}
}
