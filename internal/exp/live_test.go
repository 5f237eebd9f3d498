package exp

import (
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"weak"

	"factordb/internal/core"
	"factordb/internal/ie"
	"factordb/internal/mcmc"
)

// TestCorpusNotRetained: once BuildNER returns, neither a system nor a
// chain from it reaches the generated corpus — its header, its document
// array or a document's tokens — so the collector frees all three while
// both stay alive.
func TestCorpusNotRetained(t *testing.T) {
	cfg := Config{NumTokens: 2000, Seed: 5, UseSkip: true, TrainSteps: 2000}
	sys, corpus, docs, toks := buildWatched(t, cfg)
	ch, err := sys.NewChain(core.Materialized, Query1, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Evaluator.Run(2, nil); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if corpus.Value() != nil {
		t.Error("the corpus is still reachable from the system or its chain")
	}
	if docs.Value() != nil {
		t.Error("the corpus's documents are still reachable from the system or its chain")
	}
	if toks.Value() != nil {
		t.Error("a document's tokens are still reachable from the system or its chain")
	}
	runtime.KeepAlive(sys)
	runtime.KeepAlive(ch)
}

// buildWatched builds a system as BuildNER does and returns it with weak
// pointers to the corpus it was built from, which no strong reference
// outlives this call.
func buildWatched(t *testing.T, cfg Config) (*NERSystem, weak.Pointer[ie.Corpus], weak.Pointer[ie.Doc], weak.Pointer[ie.Token]) {
	t.Helper()
	corpus, err := ie.Generate(ie.DefaultGenConfig(cfg.NumTokens, cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := buildNER(cfg, corpus)
	if err != nil {
		t.Fatal(err)
	}
	return sys, weak.Make(corpus), weak.Make(&corpus.Docs[0]), weak.Make(&corpus.Docs[0].Tokens[0])
}

// TestSystemLiveBudget is the set-up live-set gate
// (testdata/live_budget.txt): the heap a built 5k-token system and one
// walked chain from it keep reachable after a collection, per corpus
// token.
func TestSystemLiveBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("live-set budget gate skipped in -short mode and under the race detector")
	}
	data, err := os.ReadFile("testdata/live_budget.txt")
	if err != nil {
		t.Fatal(err)
	}
	var ceiling float64
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "live_bytes_per_token "); ok {
			if ceiling, err = strconv.ParseFloat(strings.TrimSpace(v), 64); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
		}
	}
	if ceiling == 0 {
		t.Fatal("testdata/live_budget.txt pins no live_bytes_per_token")
	}

	// The least of two readings, each over a system of its own: about
	// one process in twenty allocates ~5 kB of its own at some moment
	// once, and when that falls inside a reading it adds 1 B per token.
	perToken := math.Inf(1)
	for range 2 {
		perToken = min(perToken, liveBytesPerToken(t))
	}
	if perToken > ceiling {
		t.Errorf("a system and one chain keep %.2f B per token live, budget %v", perToken, ceiling)
	}
}

// liveBytesPerToken builds a system and one chain that walks 1 000 steps
// and drains its log, and returns the heap they keep live per token. Two
// collections on each side: after one, the reading depended on what the
// process had run before (64.4 B/token for this test alone, 71.5 after
// any other test of the package, when each chain still mirrored its
// labels); after two it read the same either way.
func liveBytesPerToken(t *testing.T) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	sys, err := BuildNER(Config{NumTokens: 5000, Seed: 1, UseSkip: true})
	if err != nil {
		t.Fatal(err)
	}
	log, p, err := sys.NewChainWorld(0)
	if err != nil {
		t.Fatal(err)
	}
	mcmc.NewSampler(p, 7).Run(1000)
	log.Drain()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(sys)
	runtime.KeepAlive(log)
	runtime.KeepAlive(p)

	tokens := sys.Index.NumTokens()
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("system + one chain over %d tokens: %d live bytes, %.2f B/token", tokens, live, float64(live)/float64(tokens))
	return float64(live) / float64(tokens)
}

// TestChainDeltaLiveBudget is the change-log retention gate
// (testdata/chain_live_budget.txt): a materialized Query 4 chain over a
// 50k-token world that burned in n steps and then collected 20 samples
// keeps no more heap live than the ceiling, whatever n. The burn-in's
// delta is a burst of up to one row per token; what the chain keeps of
// it once ordinary samples follow is the gate.
func TestChainDeltaLiveBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("live-set budget gate skipped in -short mode and under the race detector")
	}
	data, err := os.ReadFile("testdata/chain_live_budget.txt")
	if err != nil {
		t.Fatal(err)
	}
	var ceiling float64
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "chain_live_bytes "); ok {
			if ceiling, err = strconv.ParseFloat(strings.TrimSpace(v), 64); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
		}
	}
	if ceiling == 0 {
		t.Fatal("testdata/chain_live_budget.txt pins no chain_live_bytes")
	}
	sys, err := BuildNER(Config{NumTokens: 50000, Seed: 1, UseSkip: true})
	if err != nil {
		t.Fatal(err)
	}
	worst, worstN := int64(0), 0
	for _, n := range []int{0, 1000, 5000, 10000, 20000, 30000, 200000} {
		live := chainLiveBytes(t, sys, n)
		t.Logf("burn-in %6d: %d live bytes", n, live)
		if live > worst {
			worst, worstN = live, n
		}
	}
	if float64(worst) > ceiling {
		t.Errorf("a chain burned in %d steps keeps %d bytes live, budget %v", worstN, worst, ceiling)
	}
	runtime.KeepAlive(sys)
}

// chainLiveBytes mounts a materialized Query 4 chain on sys, burns it in
// n steps, collects 20 samples of 1 000 steps and returns the heap the
// chain keeps live, two collections on each side.
func chainLiveBytes(t *testing.T, sys *NERSystem, n int) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	ch, err := sys.NewChain(core.Materialized, Query4, 1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	ch.Evaluator.Burn(n)
	for range 20 {
		if err := ch.Evaluator.CollectSample(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ch)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}
