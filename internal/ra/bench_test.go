package ra

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"factordb/internal/relstore"
)

// benchWorld builds TOKEN (rows tuples) and DOC (rows/10 tuples) sized so
// the join fans out and the aggregation sees real group counts.
func benchWorld(rows int) *relstore.DB {
	rng := rand.New(rand.NewSource(42))
	db := relstore.NewDB()
	docs := rows / 10
	tok := db.MustCreate(relstore.MustSchema("TOKEN",
		relstore.Column{Name: "TOK_ID", Type: relstore.TInt},
		relstore.Column{Name: "DOC_ID", Type: relstore.TInt},
		relstore.Column{Name: "STRING", Type: relstore.TString},
		relstore.Column{Name: "LABEL", Type: relstore.TString},
	))
	doc := db.MustCreate(relstore.MustSchema("DOC",
		relstore.Column{Name: "DOC_ID", Type: relstore.TInt},
		relstore.Column{Name: "YEAR", Type: relstore.TInt},
	))
	labels := []string{"PER", "ORG", "LOC", "O"}
	words := make([]string, 64)
	for i := range words {
		words[i] = fmt.Sprintf("w%02d", i)
	}
	for i := 0; i < rows; i++ {
		tok.Insert(relstore.Tuple{
			relstore.Int(int64(i)),
			relstore.Int(rng.Int63n(int64(docs))),
			relstore.String(words[rng.Intn(len(words))]),
			relstore.String(labels[rng.Intn(len(labels))]),
		})
	}
	for i := 0; i < docs; i++ {
		doc.Insert(relstore.Tuple{
			relstore.Int(int64(i)),
			relstore.Int(1990 + rng.Int63n(30)),
		})
	}
	return db
}

// benchPlan: a selective filter on each side of a join, aggregated — the
// shape whose intermediates the streaming executor never materializes.
// It is written the way the SQL planner places predicates: each
// single-table conjunct selects on its scan, below the join.
func benchPlan() Plan {
	tLabel, tDoc := C("TOKEN", "LABEL"), C("TOKEN", "DOC_ID")
	dDoc, dYear := C("DOC", "DOC_ID"), C("DOC", "YEAR")
	tokens := NewSelect(NewScan("TOKEN", ""), Cmp(OpNe, Col(tLabel), Const(relstore.String("O"))))
	docs := NewSelect(NewScan("DOC", ""), Cmp(OpGe, Col(dYear), Const(relstore.Int(2000))))
	j := NewJoin(tokens, docs, []EquiCond{{Left: tDoc, Right: dDoc}}, nil)
	return NewGroupAgg(j, []ColRef{tLabel},
		Agg{Fn: FnCount, As: "N"},
		Agg{Fn: FnMin, Arg: dYear, As: "Y0"},
	)
}

// BenchmarkEvalStreaming compares the streaming executor against the
// materialized reference on the same bound plan. The "streaming" B/op
// figure is pinned by testdata/alloc_budget.txt (see TestAllocBudget).
func BenchmarkEvalStreaming(b *testing.B) {
	db := benchWorld(20000)
	bound, err := Bind(db, benchPlan())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("streaming", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Eval(bound); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("materialized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := matEval(bound); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// allocBudget reads the pinned B/op ceiling from testdata.
func allocBudget(t *testing.T) int64 {
	data, err := os.ReadFile("testdata/alloc_budget.txt")
	if err != nil {
		t.Fatalf("reading alloc budget: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		n, err := strconv.ParseInt(line, 10, 64)
		if err != nil {
			t.Fatalf("parsing alloc budget %q: %v", line, err)
		}
		return n
	}
	t.Fatal("alloc budget file has no value")
	return 0
}

// TestAllocBudget is the allocation-regression gate: the streaming
// evaluator's bytes-per-query on the benchmark workload must stay within
// the pinned budget. If an optimization legitimately lowers the floor,
// re-pin testdata/alloc_budget.txt; if this fails after a change, the
// streaming path regressed into materializing.
func TestAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget gate skipped in -short mode")
	}
	budget := allocBudget(t)
	db := benchWorld(20000)
	bound, err := Bind(db, benchPlan())
	if err != nil {
		t.Fatal(err)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Eval(bound); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got > budget {
		t.Errorf("streaming eval allocates %d B/op, budget is %d B/op (testdata/alloc_budget.txt)", got, budget)
	}
}
