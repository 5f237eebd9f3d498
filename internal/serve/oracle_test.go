package serve

import (
	"context"
	"math/rand"
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
