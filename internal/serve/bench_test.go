package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"factordb/internal/exp"
	"factordb/internal/store"
)

// BenchmarkSharedViews measures the registry payoff: wall time for N
// concurrent identical queries (the ten-dashboards workload) against one
// chain. A standing subscription pins the physical view — the dashboard
// scenario, and a deterministic rendezvous even on a single-CPU
// scheduler — so all N timed queries attach to it: per-batch view
// maintenance is independent of N and total time stays ~flat. Without
// the registry each query owned a private view and the per-epoch cost
// grew linearly in N. Runs in -short mode by design: the CI bench smoke
// job must exercise it.
func BenchmarkSharedViews(b *testing.B) {
	sys := testSystem(b)
	const budget = 128
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("queries=%d", n), func(b *testing.B) {
			eng, err := New(sys.Prototype, Config{Chains: 1, StepsPerSample: 100, Seed: 13,
				MaxConcurrentQueries: 2 * n, MaxQueuedQueries: 2 * n})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			ctx := context.Background()
			defer holdView(b, eng, exp.Query4).detach()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for q := 0; q < n; q++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if _, err := eng.Query(ctx, exp.Query4,
							QueryOptions{Samples: budget, NoCache: true}); err != nil {
							b.Error(err)
						}
					}()
				}
				wg.Wait()
			}
			b.StopTimer()
			if hits := eng.m.viewHits.Value(); int(hits) < n*b.N {
				b.Logf("warning: only %d view hits for %d queries x %d iters — sharing did not engage",
					hits, n, b.N)
			}
		})
	}
}

// BenchmarkEngineChainScaling measures wall time to answer one query with
// a fixed total sample budget as the chain pool grows. Chains walk truly
// in parallel, so with GOMAXPROCS >= 4 the 4-chain engine should finish
// the budget at least ~2x faster than the single chain (the acceptance
// bar; in practice closer to linear until memory bandwidth binds).
func BenchmarkEngineChainScaling(b *testing.B) {
	if testing.Short() {
		b.Skip("corpus building is expensive; skipped in -short mode")
	}
	sys, err := exp.BuildNER(exp.Config{NumTokens: 30_000, Seed: 1, UseSkip: true, TrainSteps: 200_000})
	if err != nil {
		b.Fatal(err)
	}
	const budget = 256
	for _, chains := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("chains=%d", chains), func(b *testing.B) {
			eng, err := New(sys.Prototype, Config{Chains: chains, StepsPerSample: 1000, Seed: 9})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eng.Query(context.Background(), exp.Query1,
					QueryOptions{Samples: budget, NoCache: true})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Samples)/res.Elapsed.Seconds(), "samples/s")
			}
		})
	}
}

// BenchmarkWriteReequilibrate measures the write path's end-to-end cost:
// one committed DML mutation (fan-out to every chain, post-write burn-in,
// view delta fold, estimator reset) followed by a query that must reflect
// the post-write marginals. The asserted answer is the reproduction of
// the paper's update claim: the world is mutated in place and the chains
// keep sampling — queries converge to the post-write distribution with no
// engine restart and no lineage recomputation. Runs in -short mode by
// design: the CI bench smoke job must exercise the write workload.
//
// The nowal/wal-interval pair bounds durability's write-path overhead:
// with fsync=interval the append never waits on the disk, so the wal
// variant must track the baseline closely (the acceptance bar is <=10%).
func BenchmarkWriteReequilibrate(b *testing.B) {
	for _, wal := range []bool{false, true} {
		name := "nowal"
		if wal {
			name = "wal-interval"
		}
		b.Run(name, func(b *testing.B) {
			sys, err := exp.BuildCorefOver(exp.CorefConfig{NumEntities: 6, MentionsPerEntity: 4, Seed: 3}, nil)
			if err != nil {
				b.Fatal(err)
			}
			cfg := Config{Chains: 2, StepsPerSample: 200, Seed: 17}
			if wal {
				// A durable coref database: the store is seeded with the
				// prototype world, so each write pays the append, the
				// background sync and its share of checkpoints.
				st, err := store.Open(store.Options{Dir: b.TempDir(), Fsync: store.FsyncInterval})
				if err != nil {
					b.Fatal(err)
				}
				defer st.Close()
				if err := st.Seed(sys.WorldDB(), 0); err != nil {
					b.Fatal(err)
				}
				cfg.WAL = st
			}
			eng, err := New(sys.Prototype, cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				want := fmt.Sprintf("V%d", i%2)
				if _, err := eng.Exec(ctx, fmt.Sprintf(
					`UPDATE MENTION SET STRING = '%s' WHERE MENTION_ID = 0`, want), ExecOptions{}); err != nil {
					b.Fatal(err)
				}
				res, err := eng.Query(ctx, `SELECT STRING FROM MENTION WHERE MENTION_ID = 0`,
					QueryOptions{Samples: 8, NoCache: true})
				if err != nil {
					b.Fatal(err)
				}
				if res.Len() != 1 || res.Value(0, 0).String() != want || res.Prob(0) != 1 {
					b.Fatalf("iteration %d: post-write answer %+v, want %q at marginal 1", i, tuples(res), want)
				}
			}
		})
	}
}

// BenchmarkEngineConcurrentQueries measures aggregate throughput with 8
// in-flight queries sharing the chains' walks — the multi-query
// amortization the serving engine exists for.
func BenchmarkEngineConcurrentQueries(b *testing.B) {
	if testing.Short() {
		b.Skip("corpus building is expensive; skipped in -short mode")
	}
	sys, err := exp.BuildNER(exp.Config{NumTokens: 30_000, Seed: 1, UseSkip: true, TrainSteps: 200_000})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := New(sys.Prototype, Config{Chains: 4, StepsPerSample: 1000, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	queries := []string{exp.Query1, exp.Query2, exp.Query3, exp.Query4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		errs := make(chan error, 8)
		for q := 0; q < 8; q++ {
			go func(q int) {
				_, err := eng.Query(context.Background(), queries[q%len(queries)],
					QueryOptions{Samples: 64, NoCache: true})
				errs <- err
			}(q)
		}
		for q := 0; q < 8; q++ {
			if err := <-errs; err != nil {
				b.Fatal(err)
			}
		}
	}
}
