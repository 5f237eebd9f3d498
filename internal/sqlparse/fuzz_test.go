package sqlparse

import (
	"strings"
	"testing"
)

// fuzzSeeds is the shared seed corpus for both fuzz targets: every
// statement the benchmark corpus exercises, the dialect's corner
// spellings, and inputs that must fail with positioned errors rather
// than panics.
func fuzzSeeds() []string {
	seeds := append([]string{}, benchCorpus...)
	seeds = append(seeds,
		`SELECT STRING, COUNT(*) FROM TOKEN GROUP BY STRING HAVING COUNT(*) > 1`,
		`SELECT T2.STRING FROM TOKEN T1 JOIN TOKEN T2 ON T1.DOC_ID = T2.DOC_ID WHERE T1.LABEL = 'B-PER'`,
		`SELECT STRING FROM TOKEN WHERE DOC_ID IN (SELECT DOC_ID FROM TOKEN WHERE LABEL = 'B-ORG')`,
		`SELECT STRING FROM TOKEN T1 WHERE EXISTS (SELECT * FROM TOKEN T2 WHERE T2.DOC_ID = T1.DOC_ID AND T2.LABEL = 'B-LOC')`,
		`SELECT STRING FROM TOKEN WHERE LABEL NOT IN ('O', 'B-MISC')`,
		`EXPLAIN SELECT COUNT(*) FROM TOKEN WHERE LABEL = 'B-PER'`,
		`SELECT STRING FROM TOKEN WHERE DOC_ID = ? AND LABEL = ?`,
		`INSERT INTO TOKEN (TOK_ID, DOC_ID, STRING, LABEL) VALUES (?, ?, ?, ?)`,
		`DELETE FROM TOKEN WHERE TOK_ID = 42`,
		`select string from token where label = 'B-PER' order by p desc limit 3`,
		`SELECT 'O''Brien' FROM TOKEN`,
		"SELECT\n\tSTRING\nFROM\n\tTOKEN\nWHERE\n\tDOC_ID = 1.5",
		// must fail, never panic:
		`SELECT`, `'unterminated`, `SELECT * FROM`, `1.2.3`, `!`, `SELECT ~ FROM T`,
		``, ` `, `)`, `?`, `EXPLAIN`, `EXPLAIN EXPLAIN SELECT * FROM T`,
		`SELECT * FROM TOKEN WHERE`, `INSERT INTO`, `UPDATE TOKEN SET`,
		"SELECT \xff FROM T", "SELECT '\xc3\xa9' FROM T",
	)
	return seeds
}

// FuzzLex asserts the lexer's structural invariants on arbitrary
// bytes: it never panics, always terminates the stream with an EOF
// sentinel positioned at the end of the input, yields tokens in
// non-decreasing source order with in-range offsets, and is
// deterministic (same input, same stream) even through buffer reuse.
func FuzzLex(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := tokenize(src, nil)
		if len(toks) == 0 {
			t.Fatalf("tokenize(%q) returned an empty stream", src)
		}
		last := toks[len(toks)-1]
		if last.kind != tkEOF || int(last.pos) != len(src) {
			t.Fatalf("tokenize(%q): stream ends with %+v, want EOF at %d", src, last, len(src))
		}
		prev := int32(0)
		for _, tok := range toks[:len(toks)-1] {
			if tok.kind == tkEOF {
				t.Fatalf("tokenize(%q): interior EOF token", src)
			}
			if tok.pos < prev || int(tok.pos) >= len(src) {
				t.Fatalf("tokenize(%q): token %+v out of order or out of range", src, tok)
			}
			prev = tok.pos
		}
		if err != nil && !strings.HasPrefix(err.Error(), "sqlparse: line ") {
			t.Fatalf("tokenize(%q): error %q is not positioned", src, err)
		}
		// Determinism through arena reuse: lexing again into the same
		// buffer must reproduce the stream exactly.
		again, err2 := tokenize(src, toks[:0])
		if (err == nil) != (err2 == nil) || len(again) != len(toks) {
			t.Fatalf("tokenize(%q) is not deterministic: %d/%v vs %d/%v", src, len(toks), err, len(again), err2)
		}
	})
}

// FuzzParseStatement asserts the parser (and the full compile path
// behind it) never panics and keeps its contracts on arbitrary input, on
// the path every execution takes: a statement is looked up in a plan
// cache and bound to one int64 argument per placeholder. Errors carry
// the sqlparse prefix; a statement that parsed without arguments parses
// with them too, so binding fails, if at all, in planning, never with a
// positioned parse error; and a plan that binds against the test
// catalog places every predicate (see misplaced).
func FuzzParseStatement(f *testing.F) {
	for _, s := range append(fuzzSeeds(), placementCorpus...) {
		f.Add(s)
	}
	plain := NewPlanCache(0) // no schema: every error is the front end's
	pc := NewSchemaPlanCache(testDB(f), 0)
	f.Fuzz(func(t *testing.T, src string) {
		c, _, err := plain.Lookup(src, UsePrepare)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "sqlparse: ") {
				t.Fatalf("Lookup(%q): error %q lacks the sqlparse prefix", src, err)
			}
			return
		}
		args := make([]any, c.Params)
		for i := range args {
			args[i] = int64(i)
		}
		if _, err := c.Bind(args); err != nil &&
			(!strings.HasPrefix(err.Error(), "sqlparse: ") || strings.HasPrefix(err.Error(), "sqlparse: line ")) {
			t.Fatalf("Lookup(%q) ok but Bind failed: %v", src, err)
		}
		if c, _, err := pc.Lookup(src, UsePrepare); err == nil && c.Explain == nil {
			if c, err = c.Bind(args); err == nil && c.Stmt != nil {
				if bad := misplaced(c.Stmt); len(bad) > 0 {
					t.Fatalf("%q misplaces a predicate: %s", src, strings.Join(bad, "; "))
				}
			}
		}
	})
}
