package sqlparse

import (
	"fmt"
	"strings"
	"testing"

	"factordb/internal/ra"
)

func TestPlanCacheHitMiss(t *testing.T) {
	pc := NewSchemaPlanCache(testDB(t), 4)
	c1, hit, err := pc.CompileQuery(query1)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first compile reported a hit")
	}
	if c1.Plan == nil || c1.Stmt == nil || c1.Fingerprint != c1.Stmt.Fingerprint() ||
		len(c1.Cols) != 1 || c1.Cols[0] != "STRING" {
		t.Fatalf("Compiled = %+v, want plan, bound statement, its fingerprint and [STRING] columns", c1)
	}
	c2, hit, err := pc.CompileQuery(query1)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("second compile of identical bytes missed")
	}
	if c2 != c1 {
		t.Error("hit returned a different Compiled pointer")
	}
	// The cache keys on exact bytes, before canonicalization: any textual
	// difference is a miss even when the plan is identical.
	if _, hit, _ := pc.CompileQuery(query1 + " "); hit {
		t.Error("trailing-space variant hit the cache")
	}
}

func TestPlanCacheMutationEntries(t *testing.T) {
	pc := NewPlanCache(4)
	const dml = `UPDATE TOKEN SET STRING='x' WHERE TOK_ID=1`
	if _, hit, err := pc.CompileMutation(dml); err != nil || hit {
		t.Fatalf("first CompileMutation: hit=%v err=%v", hit, err)
	}
	if _, hit, err := pc.CompileMutation(dml); err != nil || !hit {
		t.Fatalf("second CompileMutation: hit=%v err=%v", hit, err)
	}
	// A SELECT asked for as a mutation must fail, not poison the cache.
	if _, _, err := pc.CompileMutation(query1); err == nil {
		t.Fatal("CompileMutation accepted a SELECT")
	}
	if _, hit, err := pc.CompileQuery(query1); err != nil || hit {
		t.Fatalf("query compile after failed mutation compile: hit=%v err=%v", hit, err)
	}
}

func TestPlanCacheEviction(t *testing.T) {
	pc := NewPlanCache(2)
	sqls := []string{
		`SELECT STRING FROM TOKEN WHERE TOK_ID=1`,
		`SELECT STRING FROM TOKEN WHERE TOK_ID=2`,
		`SELECT STRING FROM TOKEN WHERE TOK_ID=3`,
	}
	for _, s := range sqls {
		if _, _, err := pc.CompileQuery(s); err != nil {
			t.Fatal(err)
		}
	}
	if pc.Len() != 2 {
		t.Fatalf("Len = %d, want capacity 2", pc.Len())
	}
	// FIFO: the first entry was evicted, the last two are resident.
	if _, hit, _ := pc.CompileQuery(sqls[0]); hit {
		t.Error("oldest entry survived past capacity")
	}
	if _, hit, _ := pc.CompileQuery(sqls[2]); !hit {
		t.Error("newest entry was evicted")
	}
}

func TestPlanCacheErrorsNotCached(t *testing.T) {
	pc := NewPlanCache(4)
	const bad = `SELECT FROM`
	if _, _, err := pc.CompileQuery(bad); err == nil {
		t.Fatal("bad SQL compiled")
	}
	if pc.Len() != 0 {
		t.Fatalf("failed compile left %d cache entries", pc.Len())
	}
}

func TestPlanCacheNilReceiver(t *testing.T) {
	var pc *PlanCache
	c, hit, err := pc.CompileQuery(query1)
	if err != nil || hit || c == nil || c.Plan == nil {
		t.Fatalf("nil cache CompileQuery = (%v, %v, %v), want uncached success", c, hit, err)
	}
	if _, hit, err := pc.CompileMutation(`DELETE FROM TOKEN WHERE TOK_ID=1`); err != nil || hit {
		t.Fatalf("nil cache CompileMutation: hit=%v err=%v", hit, err)
	}
	if pc.Len() != 0 {
		t.Error("nil cache has a length")
	}
}

func TestPlanCacheUnboundPlaceholderError(t *testing.T) {
	pc := NewPlanCache(4)
	_, _, err := pc.CompileQuery(`SELECT STRING FROM TOKEN WHERE LABEL=?`)
	if err == nil || !strings.Contains(err.Error(), "unbound") {
		t.Fatalf("unbound placeholder through the cache = %v", err)
	}
}

func TestPlanCacheConcurrent(t *testing.T) {
	pc := NewSchemaPlanCache(testDB(t), 8)
	want := make([]string, 12)
	for i := range want {
		want[i] = fingerprintOf(t, fmt.Sprintf("SELECT STRING FROM TOKEN WHERE TOK_ID=%d", i))
	}
	done := make(chan error, 16)
	for g := 0; g < 16; g++ {
		go func(g int) {
			var err error
			for i := 0; i < 200 && err == nil; i++ {
				sql := fmt.Sprintf("SELECT STRING FROM TOKEN WHERE TOK_ID=%d", i%12)
				_, _, err = pc.CompileQuery(sql)
				// Every goroutine binds the one kept placeholder tree, and
				// gets its own arguments' plan whoever bound last.
				var c *Compiled
				if c, _, err = pc.Lookup("SELECT STRING FROM TOKEN WHERE TOK_ID=?", UseQuery); err == nil {
					if c, err = c.Bind([]any{i % 12}); err == nil && c.Fingerprint != want[i%12] {
						err = fmt.Errorf("Bind(%d) fingerprint %s, want %s", i%12, c.Fingerprint, want[i%12])
					}
				}
			}
			done <- err
		}(g)
	}
	for g := 0; g < 16; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if pc.Len() > 8 {
		t.Fatalf("cache grew past capacity: %d", pc.Len())
	}
}

// TestPlanCacheKeepsPlaceholderStatements pins the fourth kind of entry:
// a statement with placeholders is parsed once and kept, each Bind plans
// a bound copy that fingerprints like the inlined spelling, and the kept
// tree survives binding unchanged.
func TestPlanCacheKeepsPlaceholderStatements(t *testing.T) {
	pc := NewSchemaPlanCache(testDB(t), 4)
	const param = `SELECT STRING FROM TOKEN WHERE LABEL=? AND DOC_ID=?`
	c, hit, err := pc.Lookup(param, UsePrepare)
	if err != nil || hit || c.Params != 2 {
		t.Fatalf("first Lookup = %+v, hit=%v, err=%v; want a 2-placeholder miss", c, hit, err)
	}
	again, hit, err := pc.Lookup(param, UseQuery)
	if err != nil || !hit || again != c {
		t.Fatalf("second Lookup: hit=%v err=%v same=%v", hit, err, again == c)
	}
	for _, args := range [][]any{{"B-PER", int64(1)}, {"B-ORG", 7}} {
		bound, err := c.Bind(args)
		if err != nil {
			t.Fatal(err)
		}
		inlined := fmt.Sprintf(`SELECT STRING FROM TOKEN WHERE LABEL='%s' AND DOC_ID=%d`, args[0], args[1])
		if want := fingerprintOf(t, inlined); bound.Fingerprint != want {
			t.Errorf("Bind(%v) fingerprint %s, inlined %s", args, bound.Fingerprint, want)
		}
	}
	// Arguments bound before, not only the previous ones, reuse their
	// entry. The key is the literal an argument binds as, so a []byte
	// matches its string and an int its int64 — but never its float —
	// and a reused buffer keys on what it holds now.
	first, err := c.Bind([]any{"B-ORG", 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Bind([]any{"B-PER", int64(1)}); err != nil {
		t.Fatal(err)
	}
	buf := []byte("B-ORG")
	for _, args := range [][]any{{"B-ORG", 7}, {buf, int64(7)}} {
		if again, err := c.Bind(args); err != nil || again != first {
			t.Errorf("Bind%v = %p, %v; want the entry bound first %p", args, again, err, first)
		}
	}
	if asFloat, err := c.Bind([]any{"B-ORG", 7.0}); err != nil || asFloat == first {
		t.Errorf("Bind of a float argument reused the int's entry (err %v)", err)
	}
	copy(buf, "B-PER")
	if other, err := c.Bind([]any{buf, 7}); err != nil || other.Fingerprint == first.Fingerprint {
		t.Errorf("Bind after the argument buffer changed reused the previous entry (err %v)", err)
	}
	if _, err := c.Bind([]any{"B-PER"}); err == nil || !strings.Contains(err.Error(), "2 placeholders, got 1") {
		t.Errorf("Bind with too few args = %v", err)
	}
	if _, err := c.Bind(nil); err == nil || !strings.Contains(err.Error(), "unbound") {
		t.Errorf("Bind with no args = %v, want the unbound-placeholder error", err)
	}
	planned, _, err := pc.Lookup(query1, UseQuery)
	if err != nil {
		t.Fatal(err)
	}
	if same, err := planned.Bind(nil); err != nil || same != planned {
		t.Errorf("Bind(nil) of a planned entry = %p, %v; want the entry itself", same, err)
	}
	if _, err := planned.Bind([]any{1}); err == nil || !strings.Contains(err.Error(), "0 placeholders, got 1") {
		t.Errorf("Bind of an argument to a statement without placeholders = %v", err)
	}
	// A DML statement with placeholders is kept too, and Exec may use it.
	const dml = `UPDATE TOKEN SET STRING=? WHERE TOK_ID=?`
	d, _, err := pc.Lookup(dml, UseExec)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := d.Bind([]any{"x", 3}); err != nil || m.Mutation == nil {
		t.Fatalf("Bind of a DML entry = %+v, %v", m, err)
	}
	if _, _, err := pc.Lookup(dml, UseQuery); err == nil || !strings.Contains(err.Error(), "use Exec") {
		t.Errorf("a kept DML statement looked up for a query: %v", err)
	}
}

// TestCachedInsertOwnsItsColumns guards the pooled parser's arena: a
// cached INSERT's column list must not be overwritten when the parser
// that lowered it parses the next INSERT.
func TestCachedInsertOwnsItsColumns(t *testing.T) {
	pc := NewPlanCache(4)
	mut, _, err := pc.CompileMutation(`INSERT INTO TOKEN (TOK_ID, DOC_ID) VALUES (1, 2)`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if _, err := CompileExec(`INSERT INTO TOKEN (LABEL, STRING) VALUES ('O', 'x')`); err != nil {
			t.Fatal(err)
		}
	}
	if cols := mut.(*ra.Insert).Columns; len(cols) != 2 || cols[0] != "TOK_ID" || cols[1] != "DOC_ID" {
		t.Errorf("cached INSERT columns now %v, want [TOK_ID DOC_ID]", cols)
	}
}
