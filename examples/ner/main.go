// NER example: the paper's running application in more depth. Builds the
// skip-chain CRF and a plain linear chain over the same corpus, trains
// both with SampleRank, and compares their token accuracy under
// model-driven MCMC decoding. The skip edges are what make exact
// inference intractable; on real NER data they improve accuracy (Sutton
// & McCallum), while on this synthetic corpus the two are comparable —
// the interesting part is that MCMC decoding handles both identically.
// Finally the ambiguous-entity query (Query 4) runs against the
// skip-chain probabilistic database.
package main

import (
	"fmt"
	"log"

	"factordb/internal/core"
	"factordb/internal/exp"
	"factordb/internal/ie"
	"factordb/internal/mcmc"
)

func main() {
	const tokens = 30000
	accuracy := func(useSkip bool) float64 {
		sys, err := exp.BuildNER(exp.Config{NumTokens: tokens, Seed: 99, UseSkip: useSkip, TrainSteps: 400000, Temperature: 1})
		if err != nil {
			log.Fatal(err)
		}
		// Decode with a fresh model-driven MH walk from all-O: the walk
		// only sees the model; the gold labels the decoder borrows from
		// the world's TRUTH column are read only by Accuracy.
		decoder, err := ie.NewTrainer(sys.Model, sys.Index, sys.WorldDB())
		if err != nil {
			log.Fatal(err)
		}
		mcmc.NewSampler(decoder, 13).Run(20 * sys.Index.NumTokens())
		return decoder.Accuracy()
	}
	linear := accuracy(false)
	skip := accuracy(true)
	fmt.Printf("token accuracy under MCMC decoding: linear chain %.3f, skip chain %.3f\n", linear, skip)

	// Query 4 over the skip-chain probabilistic DB: people mentioned in
	// documents where "Boston" is an organization.
	sys, err := exp.BuildNER(exp.Config{NumTokens: tokens, Seed: 99, UseSkip: true})
	if err != nil {
		log.Fatal(err)
	}
	chain, err := sys.NewChain(core.Materialized, exp.Query4, 2000, 11)
	if err != nil {
		log.Fatal(err)
	}
	if err := chain.Evaluator.Run(200, nil); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\npersons co-occurring with Boston/B-ORG (Query 4):")
	res := chain.Evaluator.Results()
	if len(res) == 0 {
		fmt.Println("  (no qualifying worlds sampled)")
	}
	for i, tp := range res {
		if i >= 12 {
			break
		}
		fmt.Printf("  %-20s %.3f\n", tp.Tuple.String(), tp.P)
	}
}
