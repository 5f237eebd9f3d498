package main

import (
	"fmt"
	"math"

	"factordb/internal/core"
	"factordb/internal/exp"
)

// paperWorkload is the paper's Fig. 4a cell: long-lived evaluator chains,
// one materialized and one naive per query, driven sample by sample.
// Nothing of serve, store or http runs here.
type paperWorkload struct {
	cfg   *runConfig
	sys   *exp.NERSystem
	mat   []*exp.Chain
	naive []*exp.Chain
}

func buildSystem(cfg *runConfig) (*exp.NERSystem, error) {
	return exp.BuildNER(exp.Config{NumTokens: cfg.Scale.Tokens, Seed: corpusSeed, UseSkip: true})
}

func setupPaper(cfg *runConfig) (*paperWorkload, error) {
	sys, err := buildSystem(cfg)
	if err != nil {
		return nil, err
	}
	w := &paperWorkload{cfg: cfg, sys: sys}
	for qi, q := range paperQueries {
		for _, mode := range []core.Mode{core.Materialized, core.Naive} {
			ch, err := sys.NewChain(mode, q, cfg.Scale.K, chainSeed(qi))
			if err != nil {
				return nil, fmt.Errorf("query %d (%v): %w", qi+1, mode, err)
			}
			ch.Evaluator.Burn(cfg.Scale.BurnIn)
			if mode == core.Materialized {
				w.mat = append(w.mat, ch)
			} else {
				w.naive = append(w.naive, ch)
			}
		}
	}
	return w, nil
}

func (w *paperWorkload) do(o *op, _ *opCtx) opResult {
	chains := w.mat
	if o.Kind == opNaive {
		chains = w.naive
	}
	if err := chains[o.Query].Evaluator.CollectSample(); err != nil {
		return opResult{Why: err.Error()}
	}
	return opResult{OK: true}
}

// steps counts the materialized chains only: they are the ones the
// primary loop drives, one at a time.
func (w *paperWorkload) steps() float64 {
	var n int64
	for _, ch := range w.mat {
		n += ch.Evaluator.Sampler().Steps()
	}
	return float64(n)
}

func (w *paperWorkload) prepare() error           { return nil }
func (w *paperWorkload) incorrect() []string      { return nil }
func (w *paperWorkload) layer(map[string]float64) {}
func (w *paperWorkload) close() error             { return nil }

// equivalenceSamples is how many samples each side of the naive ≡
// materialized check collects.
const equivalenceSamples = 4

// check asserts the paper's equivalence: at the same seed the naive and
// the materialized evaluator see the same worlds, so their marginals are
// identical, for every query. Fresh chain pairs are used because the
// long-lived ones have collected different numbers of samples; their
// seeds move with --seed, so another seed checks another walk.
func (w *paperWorkload) check(runSummary) error {
	for qi, q := range paperQueries {
		var marg [2]map[string]float64
		for i, mode := range []core.Mode{core.Materialized, core.Naive} {
			ch, err := w.sys.NewChain(mode, q, w.cfg.Scale.K, chainSeed(qi)+7*w.cfg.Seed)
			if err != nil {
				return err
			}
			if err := ch.Evaluator.Run(equivalenceSamples, nil); err != nil {
				return err
			}
			marg[i] = ch.Evaluator.Marginals()
		}
		if len(marg[0]) != len(marg[1]) {
			return fmt.Errorf("query %d: materialized answer has %d tuples, naive %d", qi+1, len(marg[0]), len(marg[1]))
		}
		for k, p := range marg[0] {
			if np, ok := marg[1][k]; !ok || math.Abs(p-np) > 1e-12 {
				return fmt.Errorf("query %d: marginal of %q is %v materialized, %v naive", qi+1, k, p, np)
			}
		}
	}
	// Query 2 is a scalar aggregate: every sampled world has exactly one
	// count, so its answer distribution sums to 1.
	var mass float64
	for _, tp := range w.mat[1].Evaluator.Results() {
		mass += tp.P
	}
	if math.Abs(mass-1) > 1e-9 {
		return fmt.Errorf("query 2 count distribution sums to %v, want 1", mass)
	}
	return nil
}
