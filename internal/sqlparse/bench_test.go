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
// tokens only — exactly how the parser consumes it. Its allocation
// count is pinned by testdata/alloc_budget.txt (see TestFrontEndBudget).
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

// raceEnabled reports a race-detector build (see race_test.go), where
// allocation counts through fmt are not reproducible.
var raceEnabled bool

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
// sibling of internal/ra's TestAllocBudget. Every check is a count:
//
//   - tokenize_allocs: the lexer must stay allocation-free on the
//     benchmark corpus (any regression here multiplies across every
//     statement the server ever sees);
//   - hit_allocs: a plan-cache hit must allocate nothing;
//   - cold_allocs_min: a cold compile of the same statement must
//     allocate at least this much — the work the cache exists to skip
//     is still being measured, so a zero-allocation "hit" means a hit;
//   - bind_hit_allocs: executing the statement's placeholder spelling
//     from the cache costs binding and planning a copy of the kept
//     tree, never a parse (exact counts, so not checked in race builds).
//
// The gate proves itself: with the cache bypassed (a nil *PlanCache
// compiles every call) the hit and bind checks must fail. Timings are
// printed, never gated — no absolute or relative timing is stable on a
// shared box. If an optimization legitimately moves a count, re-pin
// testdata/alloc_budget.txt.
func TestFrontEndBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("front-end budget gate skipped in -short mode")
	}
	budgets := frontEndBudget(t)

	var buf []token
	allocs := testing.AllocsPerRun(20, func() {
		for _, sql := range benchCorpus {
			toks, err := tokenize(sql, buf[:0])
			if err != nil {
				t.Fatal(err)
			}
			buf = toks // reuse the arena buffer, as the parser does
		}
	})
	if budget := budgets["tokenize_allocs"]; allocs > float64(budget) {
		t.Errorf("tokenizing the corpus allocates %v objects/op, budget is %d", allocs, budget)
	}

	const sql = query4 + ` ORDER BY P DESC LIMIT 10`
	compile := func(pc *PlanCache) func() {
		return func() {
			if _, _, err := pc.CompileQuery(sql); err != nil {
				t.Fatal(err)
			}
		}
	}
	pc := NewPlanCache(DefaultPlanCacheSize)
	compile(pc)() // warm the entry
	hitMax := float64(budgets["hit_allocs"])
	if hit := testing.AllocsPerRun(100, compile(pc)); hit > hitMax {
		t.Errorf("a plan-cache hit allocates %v objects, budget is %v", hit, hitMax)
	}
	cold := testing.AllocsPerRun(20, compile(nil)) // a nil cache compiles every call
	if cold <= hitMax {
		t.Errorf("with the cache bypassed a \"hit\" allocates %v objects and still passes the hit gate", cold)
	}
	if floor := float64(budgets["cold_allocs_min"]); cold < floor {
		t.Errorf("a cold compile allocates %v objects, below the pinned floor %v: the gate no longer measures the work the cache skips", cold, floor)
	}

	// The same statement with its literals as placeholders: a cached
	// entry keeps the tree, so an execution with arguments not bound
	// before binds and plans a copy and never parses again. The gate
	// cycles through twice as many argument lists as the cache holds, so
	// no execution finds its arguments' plan kept; a bypassed cache must
	// fail it too.
	bindSQL := strings.NewReplacer(`'Boston'`, `?`, `'B-ORG'`, `?`, `'B-PER'`, `?`).Replace(sql)
	argSets := make([][]any, 2*DefaultPlanCacheSize)
	for i := range argSets {
		argSets[i] = []any{"City" + strconv.Itoa(i), "B-ORG", "B-PER"}
	}
	var calls int
	bind := func(pc *PlanCache) func() {
		return func() {
			c, _, err := pc.Lookup(bindSQL, UseQuery)
			if err == nil {
				calls++
				_, err = c.Bind(argSets[calls%len(argSets)])
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	bind(pc)() // warm the entry
	bindMax := float64(budgets["bind_hit_allocs"])
	bindHit := testing.AllocsPerRun(100, bind(pc))
	if bindHit > bindMax && !raceEnabled {
		t.Errorf("binding a cached placeholder statement allocates %v objects, budget is %v", bindHit, bindMax)
	}
	if bypassed := testing.AllocsPerRun(20, bind(nil)); bypassed <= bindMax && !raceEnabled {
		t.Errorf("with the cache bypassed a bound execution allocates %v objects and still passes the bind gate", bypassed)
	}
	// Executions alternating between argument lists bound before plan
	// nothing: each finds its own arguments' entry, not only the last.
	c, _, err := pc.Lookup(bindSQL, UseQuery)
	for _, args := range argSets[:2] {
		if err == nil {
			_, err = c.Bind(args)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	again := testing.AllocsPerRun(100, func() {
		calls++
		if _, err := c.Bind(argSets[calls%2]); err != nil {
			t.Fatal(err)
		}
	})
	if again != 0 && !raceEnabled {
		t.Errorf("re-executing a cached placeholder statement with earlier arguments allocates %v objects, want 0", again)
	}

	coldNS := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			compile(nil)()
		}
	}).NsPerOp()
	hitNS := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			compile(pc)()
		}
	}).NsPerOp()
	t.Logf("tokenize: %v allocs/op; compile: cold %v allocs, bound hit %v allocs; cold %dns, hit %dns (%.0fx, not gated)",
		allocs, cold, bindHit, coldNS, hitNS, float64(coldNS)/float64(hitNS))
}
