package exp

import (
	"testing"

	"factordb/internal/core"
	"factordb/internal/mcmc/mcmctest"
)

// TestTrajectoryTrainedChain pins the walk the benchmark and the serving
// engine run: a SampleRank-trained, temperature-scaled skip-chain model
// with the paper's batching, driven through a materialized evaluator.
func TestTrajectoryTrainedChain(t *testing.T) {
	sys, err := BuildNER(Config{NumTokens: 3000, Seed: 5, UseSkip: true, TrainSteps: 20000})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := sys.NewChain(core.Materialized, Query2, 500, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Evaluator.Run(40, nil); err != nil {
		t.Fatal(err)
	}
	h := mcmctest.NewHash()
	for _, ld := range ch.Tagger.Docs {
		for i := range ld.Len() {
			h.Int(int(ld.Label(i)))
		}
	}
	for _, tp := range ch.Evaluator.Results() {
		h.String(tp.Tuple.String())
		h.Int(int(tp.P * 1e9))
	}
	s := ch.Evaluator.Sampler()
	mcmctest.Check(t, "trained-chain", h, s.Steps(), s.Accepted())
}
