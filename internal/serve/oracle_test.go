package serve

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"factordb/internal/exp"
	"factordb/internal/factor"
	"factordb/internal/ie"
	"factordb/internal/metrics"
	"factordb/internal/relstore"
	"factordb/internal/sqlparse"
)

// oracleDocs are the documents of the enumerable TOKEN world: 8 tokens,
// so 3^8 = 6561 label assignments.
var oracleDocs = [][]string{
	{"Smith", "visited", "Boston"},
	{"Boston", "hired", "Smith"},
	{"Jones", "Boston"},
}

// oracleModel serves oracleDocs as a TOKEN relation whose LABEL field
// takes values in {O, B-PER, B-ORG}. The graph has a bias factor per
// token and label, a transition factor between neighbours within a
// document and a skip factor between tokens that share a string, with
// weights drawn from a fixed seed.
func oracleModel(t testing.TB) *factor.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	dom := factor.NewDomain("label", "O", "B-PER", "B-ORG")
	g := factor.NewGraph()
	db := relstore.NewDB()
	rel := db.MustCreate(ie.TokenSchema())
	var strs []string
	for d, doc := range oracleDocs {
		for i, s := range doc {
			v := g.AddVar(s, dom)
			bias := [3]float64{0, rng.NormFloat64(), rng.NormFloat64()}
			g.MustAddFactor("bias", func(vals []int) float64 { return bias[vals[0]] }, v)
			if i > 0 {
				var w [3][3]float64
				for a := range w {
					for b := range w[a] {
						w[a][b] = 0.5 * rng.NormFloat64()
					}
				}
				g.MustAddFactor("trans", func(vals []int) float64 { return w[vals[0]][vals[1]] }, g.Vars[v.ID-1], v)
			}
			for u, other := range strs {
				if other == s {
					g.MustAddFactor("skip", func(vals []int) float64 {
						if vals[0] == vals[1] {
							return 0.8
						}
						return -0.8
					}, g.Vars[u], v)
				}
			}
			strs = append(strs, s)
			if _, err := rel.Insert(relstore.Tuple{relstore.Int(int64(v.ID)), relstore.Int(int64(d)),
				relstore.String(s), relstore.String("O"), relstore.String("O")}); err != nil {
				t.Fatal(err)
			}
		}
	}
	m, err := factor.NewModel(g, db, ie.TokenRelation, ie.LabelCol)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPaperQueriesMatchExactMarginals is the convergence oracle: the
// paper's Queries 1–4, sent verbatim through the engine in naive,
// materialized and served mode, answer every tuple within one tolerance
// of its exact marginal Pr[t ∈ Q(W)], computed by enumerating every
// assignment of the enumerable world and evaluating the query on it.
// Both sides' tuples are compared: a tuple the estimate misses counts
// its exact marginal as error, and one it invents counts its estimate.
func TestPaperQueriesMatchExactMarginals(t *testing.T) {
	const (
		tol     = 0.05
		samples = 20000
	)
	m := oracleModel(t)
	queries := []string{exp.Query1, exp.Query2, exp.Query3, exp.Query4}
	exact := make([]map[string]float64, len(queries))
	for i, sql := range queries {
		plan, _, err := sqlparse.Compile(sql)
		if err != nil {
			t.Fatal(err)
		}
		if exact[i], err = m.ExactAnswer(plan); err != nil {
			t.Fatal(err)
		}
		if len(exact[i]) == 0 {
			t.Fatalf("query %d has no answer tuple in any world", i+1)
		}
	}
	modes := []struct {
		mode   Mode
		chains int
	}{{PrivateNaive, 1}, {PrivateMaterialized, 1}, {Pooled, 2}}
	for _, md := range modes {
		eng, err := New(m.Prototype, Config{Mode: md.mode, Chains: md.chains, Seed: 11, StepsPerSample: 10})
		if err != nil {
			t.Fatal(err)
		}
		for i, sql := range queries {
			res, err := eng.Query(context.Background(), sql, QueryOptions{Samples: samples, NoCache: true})
			if err != nil {
				t.Fatalf("%v query %d: %v", md.mode, i+1, err)
			}
			if res.Samples != samples {
				t.Errorf("%v query %d: %d samples, want %d", md.mode, i+1, res.Samples, samples)
			}
			est := make(map[string]float64, res.Len())
			for j := 0; j < res.Len(); j++ {
				tup := make(relstore.Tuple, res.Width(j))
				for c := range tup {
					tup[c] = res.Value(j, c)
				}
				est[tup.Key()] = res.Prob(j)
			}
			if worst := metrics.MaxAbsDiff(est, exact[i]); worst > tol {
				t.Errorf("%v query %d: max |est - exact| = %.4f over %d exact and %d estimated tuples, want <= %v",
					md.mode, i+1, worst, len(exact[i]), len(est), tol)
			}
		}
		eng.Close()
	}
}

// TestRankedStopRate is the error-rate oracle of the ranked early stop.
// On the enumerable world, served by 2 chains at 10 walk-steps per
// sample with a 20 000-sample budget, it asks 200 engine seeds for the
// top 6 tokens by their probability of being B-PER, and scores each run
// that stops early against the exact top 6. A stop claims its top 6
// decided at the query's 95 % confidence, so at most α = 5 % of runs
// may stop on a wrong set in expectation; the gate, 19 of 200 (0.095),
// lies about three binomial standard deviations above 10 of 200.
func TestRankedStopRate(t *testing.T) {
	if testing.Short() {
		t.Skip("200 seeded ranked queries skipped in -short mode")
	}
	const (
		seeds    = 200
		k        = 6
		maxWrong = 19
		sql      = `SELECT TOK_ID FROM TOKEN WHERE LABEL = 'B-PER'`
	)
	m := oracleModel(t)
	plan, _, err := sqlparse.Compile(sql)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := m.ExactAnswer(plan)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(exact))
	for key := range exact {
		keys = append(keys, key)
	}
	slices.SortFunc(keys, func(a, b string) int {
		switch {
		case exact[a] > exact[b]:
			return -1
		case exact[a] < exact[b]:
			return 1
		}
		return strings.Compare(a, b)
	})
	if len(keys) <= k || exact[keys[k-1]] == exact[keys[k]] {
		t.Fatalf("the exact answer has no strict top %d: %v", k, exact)
	}
	top := keys[:k]
	slices.Sort(top)

	stops, wrong, samples := 0, 0, int64(0)
	for seed := int64(1); seed <= seeds; seed++ {
		eng, err := New(m.Prototype, Config{Chains: 2, Seed: seed, StepsPerSample: 10})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Query(context.Background(), sql+` ORDER BY P DESC LIMIT 6`,
			QueryOptions{Samples: 20000, NoCache: true})
		eng.Close()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		samples += res.Samples
		if !res.EarlyStop {
			continue
		}
		stops++
		got := make([]string, res.Len())
		for i := range got {
			got[i] = relstore.Tuple{res.Value(i, 0)}.Key()
		}
		if slices.Sort(got); !slices.Equal(got, top) {
			wrong++
		}
	}
	t.Logf("%d of %d seeds stopped early, %d on a wrong top %d; %d samples a query on average",
		stops, seeds, wrong, k, samples/seeds)
	if wrong > maxWrong {
		t.Errorf("%d of %d seeds stopped on a wrong top %d, want at most %d", wrong, seeds, k, maxWrong)
	}
}
