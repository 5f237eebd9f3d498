package serve

import (
	"context"
	"fmt"

	"factordb/internal/core"
	"factordb/internal/ra"
	"factordb/internal/relstore"
	"factordb/internal/sqlparse"
	"factordb/internal/world"
)

// strategy is the one step in which the paper's evaluation algorithms
// differ — how a query's samples are obtained — and its mirror image on
// the write side: which worlds beside the prototype a write lands on.
// Everything around it (plan cache, result cache, admission, tracing,
// logging, ranking, WAL, data epoch, the prototype world that writes
// resolve on and certain plans read) belongs to the Engine and exists
// once.
type strategy interface {
	// collectOnce runs one sampling pass of comp up to opts.Samples (or
	// cancellation, or shutdown) and returns the merged estimate.
	collectOnce(ctx context.Context, comp *sqlparse.Compiled,
		opts QueryOptions, z float64, tr *qtrace) (collection, error)
	// apply lands resolved ops on the prototype and on every world copy
	// walked from it. It runs after the WAL append, under the write lock,
	// and is not cancellable.
	apply(ops []world.Op, tr *qtrace) error
	// analyze runs one instrumented evaluation of stmt per world copy
	// and merges the per-operator counters.
	analyze(ctx context.Context, stmt *ra.Bound) (*ra.StreamStats, error)
}

// pool is the served strategy: the engine's long-lived chains, whose
// walk every in-flight query shares. Its methods sit next to the code
// they drive — collectOnce in session.go, apply in write.go, analyze in
// explain.go.
type pool struct{ *Engine }

// private is the paper's single-chain strategy: every query clones the
// model's prototype world and walks it in the calling goroutine for its
// whole budget — re-running the query per sample (core.Naive,
// Algorithm 3) or maintaining it as a view (core.Materialized,
// Algorithm 1). Writes land on the prototype only, so every later clone
// carries them. The seed is used as given: equal queries repeat the same
// walk.
type private struct {
	*Engine
	mode core.Mode
}

func (p private) collectOnce(ctx context.Context, comp *sqlparse.Compiled,
	opts QueryOptions, _ float64, tr *qtrace) (collection, error) {
	tr.span("clone_world")
	p.writeMu.RLock() // the clone is wholly before or after any write
	log, proposer, err := p.src.NewChainWorld(0)
	p.writeMu.RUnlock()
	if err != nil {
		return collection{}, err
	}
	ev, err := core.NewEvaluator(p.mode, log, proposer, comp.Plan, p.cfg.StepsPerSample, p.cfg.Seed)
	if err != nil {
		p.m.failed.Inc()
		return collection{}, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	tr.span("sample")
	if p.cfg.BurnIn > 0 {
		ev.Burn(p.cfg.BurnIn)
	}
	var col collection
	for i := 0; i < opts.Samples; i++ {
		// Cancellation and shutdown are honored between samples: one
		// sample is k walk-steps plus one (incremental) evaluation, the
		// natural granularity of the algorithm.
		if col.closed = p.Closed(); col.closed || ctx.Err() != nil {
			col.partial = true
			break
		}
		if err := ev.CollectSample(); err != nil {
			return collection{}, err
		}
	}
	col.merged, col.epoch = ev.Estimator(), log.Epoch()
	p.m.steps.Add(ev.Sampler().Steps())
	p.m.accepted.Add(ev.Sampler().Accepted())
	p.m.samples.Add(col.merged.Samples())
	tr.attr("samples", fmt.Sprintf("%d", col.merged.Samples()))
	return col, nil
}

// evalCertain mounts stmt on db and runs it once. Its distinct tuples
// are the answer, each in it with certainty: one sample counts every
// one, and an interval at quantile 0 is the point [1, 1].
func evalCertain(db *relstore.DB, stmt *ra.Bound) ([]core.TupleCI, error) {
	bound, err := stmt.On(db)
	if err != nil {
		return nil, err
	}
	it, _, err := ra.Stream(bound)
	if err != nil {
		return nil, err
	}
	est := core.NewEstimator()
	est.AddSampleStream(it)
	return est.ResultsCI(0), nil
}

// apply has nothing to land beyond the prototype: no chain outlives the
// query that cloned it.
func (p private) apply(ops []world.Op, tr *qtrace) error {
	tr.span("apply")
	return p.applyPrototype(ops)
}

func (p private) analyze(_ context.Context, stmt *ra.Bound) (*ra.StreamStats, error) {
	p.writeMu.RLock() // the clone is wholly before or after any write
	db := p.src.WorldDB().Clone()
	p.writeMu.RUnlock()
	return analyzePlan(db, stmt)
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
