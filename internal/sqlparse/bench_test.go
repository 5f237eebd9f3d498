package sqlparse

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"
)

// benchCorpus is the front-end benchmark workload: the paper's four
// evaluation queries, the ranked variant, a DML update, a label-set IN
// query, and a batch evidence INSERT — the statement mix the serving,
// load-generation and WAL-replay paths see.
var benchCorpus = []string{
	query1,
	query2,
	query3,
	query4,
	query4 + ` ORDER BY P DESC LIMIT 10`,
	`UPDATE TOKEN SET STRING = 'load-1' WHERE TOK_ID = 1`,
	`SELECT STRING FROM TOKEN WHERE LABEL IN ('B-PER', 'I-PER', 'B-ORG', 'I-ORG', 'B-LOC', 'I-LOC', 'B-MISC', 'I-MISC') AND DOC_ID = 12345`,
	`INSERT INTO TOKEN (TOK_ID, DOC_ID, STRING, LABEL) VALUES
 (10001, 401, 'Massachusetts', 'B-LOC'), (10002, 401, 'General', 'B-ORG'),
 (10003, 401, 'Hospital', 'I-ORG'), (10004, 401, 'discharged', 'O'),
 (10005, 401, 'Kennedy', 'B-PER'), (10006, 402, 'Springfield', 'B-LOC'),
 (10007, 402, 'Republican', 'B-MISC'), (10008, 402, 'delegation', 'O')`,
}

func corpusBytes() int64 {
	var n int64
	for _, sql := range benchCorpus {
		n += int64(len(sql))
	}
	return n
}

// BenchmarkTokenize is the byte-scan lexer's throughput figure: the
// benchmark corpus end to end into a warm arena buffer, sub-slice
// tokens only — exactly how the parser consumes it. The alloc and
// throughput floors are pinned by testdata/alloc_budget.txt (see
// TestFrontEndBudget).
func BenchmarkTokenize(b *testing.B) {
	var buf []token
	b.ReportAllocs()
	b.SetBytes(corpusBytes())
	for i := 0; i < b.N; i++ {
		for _, sql := range benchCorpus {
			toks, err := tokenize(sql, buf[:0])
			if err != nil {
				b.Fatal(err)
			}
			if len(toks) < 2 {
				b.Fatal("no tokens")
			}
			buf = toks // reuse the arena buffer, as the parser does
		}
	}
}

// BenchmarkCompile compares a cold compile (lex + parse + plan +
// canonicalize, every iteration) against a plan-cache hit on the same
// statement — the figure the raw-SQL cache exists for.
func BenchmarkCompile(b *testing.B) {
	const sql = `SELECT T2.STRING FROM TOKEN T1, TOKEN T2
 WHERE T1.STRING='Boston' AND T1.LABEL='B-ORG'
 AND T1.DOC_ID=T2.DOC_ID AND T2.LABEL='B-PER'
 ORDER BY P DESC LIMIT 10`
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := Compile(sql); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		pc := NewPlanCache(DefaultPlanCacheSize)
		if _, _, err := pc.CompileQuery(sql); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, hit, err := pc.CompileQuery(sql); err != nil || !hit {
				b.Fatalf("hit=%v err=%v", hit, err)
			}
		}
	})
}

// frontEndBudget reads the pinned budgets from testdata: one
// "key value" pair per line, # comments.
func frontEndBudget(t *testing.T) map[string]int64 {
	f, err := os.Open("testdata/alloc_budget.txt")
	if err != nil {
		t.Fatalf("reading front-end budget: %v", err)
	}
	defer f.Close()
	budgets := make(map[string]int64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("budget line %q: want \"key value\"", line)
		}
		n, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			t.Fatalf("budget line %q: %v", line, err)
		}
		budgets[fields[0]] = n
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return budgets
}

// TestFrontEndBudget is the front-end regression gate, the sqlparse
// sibling of internal/ra's TestAllocBudget:
//
//   - tokenize_allocs: the lexer must stay allocation-free on the
//     benchmark corpus (any regression here multiplies across every
//     statement the server ever sees);
//   - hit_speedup_min: a plan-cache hit must beat a cold compile by at
//     least this factor, or the cache has stopped earning its keep.
//
// Both hold under load from parallel packages: one is a deterministic
// count, the other a ratio of two kinds of work in one process. Lexer
// throughput in MB/s is no gate — no absolute timing is stable on a
// shared box; BenchmarkTokenize prints it. If an optimization
// legitimately moves a floor, re-pin testdata/alloc_budget.txt.
func TestFrontEndBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("front-end budget gate skipped in -short mode")
	}
	budgets := frontEndBudget(t)

	tok := testing.Benchmark(func(b *testing.B) {
		var buf []token
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, sql := range benchCorpus {
				toks, err := tokenize(sql, buf[:0])
				if err != nil {
					b.Fatal(err)
				}
				buf = toks // reuse the arena buffer, as the parser does
			}
		}
	})
	allocs := tok.AllocsPerOp()
	if budget := budgets["tokenize_allocs"]; allocs > budget {
		t.Errorf("tokenizing the corpus allocates %d objects/op, budget is %d", allocs, budget)
	}

	const sql = query4 + ` ORDER BY P DESC LIMIT 10`
	cold := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := Compile(sql); err != nil {
				b.Fatal(err)
			}
		}
	})
	pc := NewPlanCache(DefaultPlanCacheSize)
	if _, _, err := pc.CompileQuery(sql); err != nil {
		t.Fatal(err)
	}
	hit := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok, err := pc.CompileQuery(sql); err != nil || !ok {
				b.Fatalf("hit=%v err=%v", ok, err)
			}
		}
	})
	speedup := float64(cold.NsPerOp()) / float64(hit.NsPerOp())
	if min := float64(budgets["hit_speedup_min"]); speedup < min {
		t.Errorf("plan-cache hit is only %.1fx faster than a cold compile (%.0fns vs %.0fns), floor is %.0fx",
			speedup, float64(hit.NsPerOp()), float64(cold.NsPerOp()), min)
	}
	t.Logf("tokenize: %d allocs/op; compile: cold %dns, hit %dns (%.0fx)",
		allocs, cold.NsPerOp(), hit.NsPerOp(), speedup)
}
