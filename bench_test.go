package factordb

// One benchmark per paper table/figure (cmd/experiments regenerates the
// figures themselves; README "Internals" lists them). Each Fig4* / Fig6* benchmark measures the steady-state cost of
// collecting one query sample (k MH walk-steps + query evaluation) for
// the relevant query, evaluator and database size: the quantity whose
// growth with N separates the naive from the materialized evaluator in
// Figures 4(a) and 4(b). Ablation benchmarks cover the design choices
// the README's "Execution" section describes. Full figure regeneration (loss curves, time-
// to-half-error sweeps) lives in cmd/experiments.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"factordb/internal/core"
	"factordb/internal/coref"
	"factordb/internal/exp"
	"factordb/internal/ie"
	"factordb/internal/mcmc"
	"factordb/internal/relstore"
	"factordb/internal/world"
)

const benchThin = 1000 // MH steps per sample during benchmarks

var (
	sysCache   = map[string]*exp.NERSystem{}
	sysCacheMu sync.Mutex
)

func benchSystem(b *testing.B, tokens int, useSkip bool) *exp.NERSystem {
	b.Helper()
	if testing.Short() {
		b.Skip("corpus building and training are expensive; skipped in -short mode")
	}
	key := fmt.Sprintf("%d-%v", tokens, useSkip)
	sysCacheMu.Lock()
	defer sysCacheMu.Unlock()
	if s, ok := sysCache[key]; ok {
		return s
	}
	s, err := exp.BuildNER(exp.Config{NumTokens: tokens, Seed: 1, UseSkip: useSkip, TrainSteps: 200000})
	if err != nil {
		b.Fatal(err)
	}
	sysCache[key] = s
	return s
}

func benchSamples(b *testing.B, tokens int, mode core.Mode, sql string) {
	b.Helper()
	sys := benchSystem(b, tokens, true)
	ch, err := sys.NewChain(mode, sql, benchThin, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ch.Evaluator.CollectSample(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figure 4(a)/4(b): Query 1, naive vs materialized across sizes ----

func BenchmarkFig4aQuery1Naive10k(b *testing.B) { benchSamples(b, 10_000, core.Naive, exp.Query1) }
func BenchmarkFig4aQuery1Mater10k(b *testing.B) {
	benchSamples(b, 10_000, core.Materialized, exp.Query1)
}
func BenchmarkFig4aQuery1Naive100k(b *testing.B) { benchSamples(b, 100_000, core.Naive, exp.Query1) }
func BenchmarkFig4aQuery1Mater100k(b *testing.B) {
	benchSamples(b, 100_000, core.Materialized, exp.Query1)
}

// Figure 4(b) uses the 1M-tuple database in the paper; 300k here keeps
// the default bench run affordable while preserving the gap.
func BenchmarkFig4bQuery1Naive300k(b *testing.B) { benchSamples(b, 300_000, core.Naive, exp.Query1) }
func BenchmarkFig4bQuery1Mater300k(b *testing.B) {
	benchSamples(b, 300_000, core.Materialized, exp.Query1)
}

// ---- Figure 5: parallel chains ----

func BenchmarkFig5ParallelChains(b *testing.B) {
	sys := benchSystem(b, 30_000, true)
	for _, chains := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("chains=%d", chains), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := core.RunParallel(chains, 10, func(c int) (*core.Evaluator, error) {
					ch, err := sys.NewChain(core.Materialized, exp.Query1, benchThin, int64(100+c))
					if err != nil {
						return nil, err
					}
					return ch.Evaluator, nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Figure 6 / Figure 7: aggregate queries ----

func BenchmarkFig6Query2Naive100k(b *testing.B) { benchSamples(b, 100_000, core.Naive, exp.Query2) }
func BenchmarkFig6Query2Mater100k(b *testing.B) {
	benchSamples(b, 100_000, core.Materialized, exp.Query2)
}
func BenchmarkFig6Query3Naive100k(b *testing.B) { benchSamples(b, 100_000, core.Naive, exp.Query3) }
func BenchmarkFig6Query3Mater100k(b *testing.B) {
	benchSamples(b, 100_000, core.Materialized, exp.Query3)
}

// ---- Figure 8: self-join Query 4 ----

func BenchmarkFig8Query4Naive30k(b *testing.B) { benchSamples(b, 30_000, core.Naive, exp.Query4) }
func BenchmarkFig8Query4Mater30k(b *testing.B) {
	benchSamples(b, 30_000, core.Materialized, exp.Query4)
}

// ---- Ablations (cmd/experiments runs the k series) ----

// BenchmarkMHStep measures the raw Metropolis-Hastings walk-step cost,
// which the paper argues is constant in the database size (Section 5.3).
// The plain case never drains the chain's change log, so its pending
// delta grows to every row the walk touched; the drains-every case
// drains it every benchThin steps, as a sampling chain does between
// samples, and drops the delta, which no view here reads.
func BenchmarkMHStep(b *testing.B) {
	for _, tokens := range []int{10_000, 100_000} {
		for _, drainEvery := range []int{0, benchThin} {
			name := fmt.Sprintf("tokens=%d", tokens)
			if drainEvery > 0 {
				name += fmt.Sprintf(",drains-every=%d", drainEvery)
			}
			b.Run(name, func(b *testing.B) {
				sys := benchSystem(b, tokens, true)
				ch, err := sys.NewChain(core.Materialized, exp.Query1, benchThin, 3)
				if err != nil {
					b.Fatal(err)
				}
				s := ch.Evaluator.Sampler()
				b.ResetTimer()
				for i := 1; i <= b.N; i++ {
					s.Step()
					if drainEvery > 0 && i%drainEvery == 0 {
						ch.Log.Drain()
					}
				}
			})
		}
	}
}

// BenchmarkScoreDelta compares local delta scoring against full-document
// rescoring: the factor-cancellation optimization of Appendix 9.2.
func BenchmarkScoreDelta(b *testing.B) {
	if testing.Short() {
		b.Skip("corpus building is expensive; skipped in -short mode")
	}
	corpus, err := ie.Generate(ie.DefaultGenConfig(20_000, 5))
	if err != nil {
		b.Fatal(err)
	}
	db := relstore.NewDB()
	if err := ie.LoadCorpus(db, corpus, ie.LO); err != nil {
		b.Fatal(err)
	}
	index, err := ie.NewCorpusIndex(db)
	if err != nil {
		b.Fatal(err)
	}
	model := ie.NewModel(index.NumStrings(), true)
	tg, err := ie.NewTagger(model, index, world.NewChangeLog(db))
	if err != nil {
		b.Fatal(err)
	}
	rel, _ := db.Relation(ie.TokenRelation)
	ld := tg.Docs[0] // its position i is TOKEN row i
	rng := rand.New(rand.NewSource(7))
	b.Run("local-delta", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pos := rng.Intn(ld.Len())
			model.ScoreDelta(ld, pos, ie.Label(rng.Intn(ie.NumLabels)))
		}
	})
	b.Run("full-rescore", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pos := rng.Intn(ld.Len())
			old := ld.Label(pos)
			before := model.DocScore(ld)
			rel.SetCol(relstore.RowID(pos), ie.LabelCol, relstore.String(ie.Label(rng.Intn(ie.NumLabels)).String()))
			_ = model.DocScore(ld) - before
			rel.SetCol(relstore.RowID(pos), ie.LabelCol, relstore.String(old.String()))
		}
	})
}

// BenchmarkSkipAblation compares MH step cost with and without skip
// factors (density ablation).
func BenchmarkSkipAblation(b *testing.B) {
	for _, useSkip := range []bool{false, true} {
		b.Run(fmt.Sprintf("skip=%v", useSkip), func(b *testing.B) {
			sys := benchSystem(b, 30_000, useSkip)
			ch, err := sys.NewChain(core.Materialized, exp.Query1, benchThin, 3)
			if err != nil {
				b.Fatal(err)
			}
			s := ch.Evaluator.Sampler()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}

// BenchmarkThinningAblation sweeps k, the steps-per-sample interval: cost
// per sample grows with k while sample dependence shrinks (Section 4.1).
func BenchmarkThinningAblation(b *testing.B) {
	sys := benchSystem(b, 30_000, true)
	for _, k := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			ch, err := sys.NewChain(core.Materialized, exp.Query1, k, 3)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ch.Evaluator.CollectSample(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGenerativeVsMCMC reproduces the Section 2 comparison against
// MCDB-style generative sampling on the linear-chain model (the only
// model family with a tractable iid sampler): one iid sample regenerates
// every document by forward-filtering backward-sampling and runs the
// full query, while one MCMC sample advances the world k steps and
// updates the materialized view. Both produce one valid query sample;
// the cost gap is the paper's argument for hypothesizing modifications
// instead of generating worlds.
func BenchmarkGenerativeVsMCMC(b *testing.B) {
	sys := benchSystem(b, 30_000, false) // linear chain: iid sampler exists
	b.Run("generative-iid", func(b *testing.B) {
		ch, err := sys.NewChain(core.Naive, exp.Query1, benchThin, 7)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ch.Tagger.SampleCorpus(rng); err != nil {
				b.Fatal(err)
			}
			if err := ch.Evaluator.CollectSample(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mcmc-materialized", func(b *testing.B) {
		ch, err := sys.NewChain(core.Materialized, exp.Query1, benchThin, 7)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ch.Evaluator.CollectSample(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCorefSampling measures entity-resolution move proposals
// (Figure 1's second modeled problem), each reading its mentions' text
// from the MENTION relation and writing an accepted move to it.
func BenchmarkCorefSampling(b *testing.B) {
	mentions, err := coref.Generate(coref.GenConfig{NumEntities: 40, MentionsPerEntity: 5, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	db := relstore.NewDB()
	if err := coref.LoadMentions(db, mentions); err != nil {
		b.Fatal(err)
	}
	state, err := coref.NewState(world.NewChangeLog(db))
	if err != nil {
		b.Fatal(err)
	}
	sampler := mcmc.NewSampler(coref.NewMoveProposer(state, coref.DefaultModel()), 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sampler.Step()
	}
}

// BenchmarkFacadeOverhead measures what the public API costs over direct
// core.Evaluator wiring: each iteration evaluates one full query (fresh
// chain world, bind, burn-free sampling run) on the same plan, corpus,
// thinning interval and seed — once through DB.Query and once by hand.
// The difference is the facade's own overhead: SQL re-compilation, the
// options plumbing, and Rows materialization with Wilson intervals.
func BenchmarkFacadeOverhead(b *testing.B) {
	const (
		benchSeed    = 7
		queriesPerOp = 4 // samples per query evaluation
	)
	sys := benchSystem(b, 20_000, true) // skips under -short, like the corpus benchmarks
	db, err := Open(NER(NERConfig{Tokens: 20_000, Seed: 1, TrainSteps: 200_000}),
		WithSteps(benchThin), WithSeed(benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()

	b.Run("facade", func(b *testing.B) {
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			rows, err := db.Query(ctx, Query1, Samples(queriesPerOp))
			if err != nil {
				b.Fatal(err)
			}
			rows.Close()
		}
	})
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ch, err := sys.NewChain(core.Materialized, exp.Query1, benchThin, benchSeed)
			if err != nil {
				b.Fatal(err)
			}
			if err := ch.Evaluator.Run(queriesPerOp, nil); err != nil {
				b.Fatal(err)
			}
			ch.Evaluator.Estimator().ResultsCI(1.96)
		}
	})
}

// BenchmarkTopK compares first-class SQL ranking (ORDER BY P DESC
// LIMIT k) against the fetch-all-and-sort pattern it replaces, on the
// served engine over the bimodal coref workload (same-entity pairs near
// p=1, cross-entity pairs near 0). Both paths get the same sample
// budget; the SQL path may stop early once the confidence intervals
// separate the top k from the rest, so it wins on samples walked —
// the dominant cost — not merely on skipped client-side sorting. The
// samples/op metric makes the saving visible directly.
func BenchmarkTopK(b *testing.B) {
	const (
		budget = 512
		k      = 8
	)
	db, err := Open(Coref(CorefConfig{Entities: 4, MentionsPerEntity: 3, Seed: 17}),
		WithMode(ModeServed), WithChains(1), WithSteps(200), WithSeed(19),
		WithCache(-1, 0)) // cache off: measure evaluation, not lookups
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()

	b.Run("sql-limit", func(b *testing.B) {
		rankedSQL := fmt.Sprintf("%s ORDER BY P DESC LIMIT %d", PairQuery, k)
		var samples int64
		for i := 0; i < b.N; i++ {
			rows, err := db.Query(ctx, rankedSQL, Samples(budget))
			if err != nil {
				b.Fatal(err)
			}
			samples += rows.Samples()
			rows.Close()
		}
		b.ReportMetric(float64(samples)/float64(b.N), "samples/op")
	})
	b.Run("fetch-all-sort", func(b *testing.B) {
		var samples int64
		for i := 0; i < b.N; i++ {
			rows, err := db.Query(ctx, PairQuery, Samples(budget))
			if err != nil {
				b.Fatal(err)
			}
			samples += rows.Samples()
			type pairP struct {
				a, b int64
				p    float64
			}
			var all []pairP
			for rows.Next() {
				var m1, m2 int64
				if err := rows.Scan(&m1, &m2); err != nil {
					b.Fatal(err)
				}
				all = append(all, pairP{m1, m2, rows.Prob()})
			}
			sort.Slice(all, func(i, j int) bool { return all[i].p > all[j].p })
			if len(all) > k {
				all = all[:k]
			}
			rows.Close()
		}
		b.ReportMetric(float64(samples)/float64(b.N), "samples/op")
	})
}
