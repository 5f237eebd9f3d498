package exp

import (
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

	var before, after runtime.MemStats
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
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(sys)
	runtime.KeepAlive(log)
	runtime.KeepAlive(p)

	tokens := sys.Index.NumTokens()
	perToken := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(tokens)
	t.Logf("system + one chain over %d tokens: %.0f live bytes, %.1f B/token", tokens, perToken*float64(tokens), perToken)
	if perToken > ceiling {
		t.Errorf("a system and one chain keep %.1f B per token live, budget %v", perToken, ceiling)
	}
}
