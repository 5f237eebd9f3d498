package core

import (
	"fmt"
	"sync"
)

// ChainFactory builds an independent evaluator for chain i. Each chain
// must own a private copy of the world (the paper produces "identical
// copies of the probabilistic database", Section 5.4) and use a distinct
// random seed.
type ChainFactory func(chain int) (*Evaluator, error)

// RunParallel runs n independent MCMC chains for the given number of
// samples each and returns the merge of their snapshots. Samples drawn
// across chains are far more independent than consecutive samples within
// one chain, which is why the paper observes super-linear error reduction
// (Figure 5).
func RunParallel(n, samplesPerChain int, factory ChainFactory) (*Estimator, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: need at least one chain, got %d", n)
	}
	evs := make([]*Evaluator, n)
	for i := range evs {
		ev, err := factory(i)
		if err != nil {
			return nil, fmt.Errorf("core: building chain %d: %w", i, err)
		}
		evs[i] = ev
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, ev := range evs {
		wg.Add(1)
		go func(i int, ev *Evaluator) {
			defer wg.Done()
			errs[i] = ev.Run(samplesPerChain, nil)
		}(i, ev)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: chain %d: %w", i, err)
		}
	}
	merged := NewEstimator()
	for _, ev := range evs {
		merged.Merge(ev.Estimator().Snapshot())
	}
	return merged, nil
}
