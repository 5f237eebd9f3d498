package core

import (
	"fmt"
	"time"

	"factordb/internal/ivm"
	"factordb/internal/mcmc"
	"factordb/internal/metrics"
	"factordb/internal/ra"
	"factordb/internal/world"
)

// Mode selects the query-evaluation strategy.
type Mode uint8

// Evaluation modes: Naive re-executes the query per sample (Algorithm 3);
// Materialized maintains the answer from deltas (Algorithm 1).
const (
	Naive Mode = iota
	Materialized
)

func (m Mode) String() string {
	if m == Materialized {
		return "materialized"
	}
	return "naive"
}

// Evaluator estimates the marginal probabilities of a query's answer
// tuples by MCMC sampling over possible worlds.
type Evaluator struct {
	mode    Mode
	log     *world.ChangeLog
	sampler *mcmc.Sampler
	bound   *ra.Bound
	view    *ivm.View // Materialized only
	est     *Estimator

	// Naive only: the streaming pipeline compiled once at construction and
	// re-run over the current world for every sample, feeding the estimator
	// without materializing an answer.
	stream ra.Iterator

	// StepsPerSample is k of Algorithms 1 and 3: the thinning interval in
	// MH walk-steps between consecutive query samples.
	StepsPerSample int
}

// NewEvaluator builds an evaluator over the world held in log's database.
// The proposer embodies the factor-graph model and proposal distribution;
// plan is the query. For Materialized mode the view is initialized with
// one full evaluation, and any changes already pending in the log are
// folded in first so the view starts consistent.
func NewEvaluator(mode Mode, log *world.ChangeLog, proposer mcmc.Proposer, plan ra.Plan, stepsPerSample int, seed int64) (*Evaluator, error) {
	if stepsPerSample <= 0 {
		return nil, fmt.Errorf("core: stepsPerSample must be positive, got %d", stepsPerSample)
	}
	bound, err := ra.Bind(log.DB(), plan)
	if err != nil {
		return nil, err
	}
	ev := &Evaluator{
		mode:           mode,
		log:            log,
		sampler:        mcmc.NewSampler(proposer, seed),
		bound:          bound,
		est:            NewEstimator(),
		StepsPerSample: stepsPerSample,
	}
	if mode == Materialized {
		log.Drain() // view initialization sees the current world directly
		view, err := ivm.NewView(bound)
		if err != nil {
			return nil, err
		}
		ev.view = view
	} else {
		if ev.stream, _, err = ra.Stream(bound); err != nil {
			return nil, err
		}
	}
	return ev, nil
}

// Sampler exposes the underlying MH sampler for statistics.
func (ev *Evaluator) Sampler() *mcmc.Sampler { return ev.sampler }

// Estimator exposes the accumulated marginal counts.
func (ev *Evaluator) Estimator() *Estimator { return ev.est }

// Burn advances the world by n MH walk-steps without collecting a
// sample, discarding the initial transient of the chain. For the
// materialized evaluator the accumulated deltas are still folded into the
// view so it stays consistent with the world.
func (ev *Evaluator) Burn(n int) {
	ev.sampler.Run(n)
	d := ev.log.Drain()
	if ev.mode == Materialized {
		ev.view.Apply(d)
	}
}

// CollectSample advances the world by k MH walk-steps, evaluates the
// query on the resulting world (fully or incrementally according to the
// mode), and folds the answer into the marginal estimate.
func (ev *Evaluator) CollectSample() error {
	ev.sampler.Run(ev.StepsPerSample)
	if ev.mode == Materialized {
		// Algorithm 1 line 5: apply Q'(w,Δ⁻) and Q'(w,Δ⁺) to the
		// materialized answer; the auxiliary delta tables are then
		// cleared for the next batch.
		ev.view.Apply(ev.log.Drain())
		ev.est.AddSample(ev.view.Result())
		return nil
	}
	// Algorithm 3 line 5: run the full query over the world, streaming
	// answer tuples straight into the estimator. The delta log is
	// discarded — the naive evaluator does not use it.
	ev.log.Drain()
	ev.est.AddSampleStream(ev.stream)
	return nil
}

// Run collects n samples. If onSample is non-nil it is invoked after each
// sample with the 1-based sample index.
func (ev *Evaluator) Run(n int, onSample func(i int)) error {
	for i := 1; i <= n; i++ {
		if err := ev.CollectSample(); err != nil {
			return err
		}
		if onSample != nil {
			onSample(i)
		}
	}
	return nil
}

// RunTraced collects n samples while recording a squared-error loss trace
// against the ground-truth marginals after every sample.
func (ev *Evaluator) RunTraced(n int, truth map[string]float64) (*metrics.Trace, error) {
	tr := &metrics.Trace{}
	start := time.Now()
	err := ev.Run(n, func(int) {
		tr.Add(metrics.Point{
			Elapsed: time.Since(start),
			Steps:   ev.sampler.Steps(),
			Samples: ev.est.Samples(),
			Loss:    metrics.SquaredError(ev.est.Marginals(), truth),
		})
	})
	if err != nil {
		return nil, err
	}
	return tr, nil
}

// Results returns the current probabilistic query answer.
func (ev *Evaluator) Results() []TupleProb { return ev.est.Results() }

// Marginals returns the current marginal estimates keyed by tuple key.
func (ev *Evaluator) Marginals() map[string]float64 { return ev.est.Marginals() }
