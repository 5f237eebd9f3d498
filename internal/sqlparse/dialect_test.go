package sqlparse

import (
	"reflect"
	"strings"
	"testing"

	"factordb/internal/ra"
	"factordb/internal/relstore"
)

// The widened dialect (JOIN ... ON, IN, EXISTS, EXPLAIN, ? placeholders)
// lowers onto the same relational algebra the original comma-join
// dialect produced, so every new spelling is pinned two ways: by plan
// fingerprint against its classic equivalent where one exists, and by
// evaluation on the fixture world where the construct is net-new.

func fingerprintOf(t *testing.T, sql string) string {
	t.Helper()
	plan, _, err := Compile(sql)
	if err != nil {
		t.Fatalf("Compile(%q): %v", sql, err)
	}
	return boundFingerprint(t, plan)
}

// boundFingerprint binds plan against the test catalog and returns the
// bound statement's fingerprint, the one identity a statement has.
func boundFingerprint(t *testing.T, plan ra.Plan) string {
	t.Helper()
	b, err := ra.Prepare(testDB(t), plan)
	if err != nil {
		t.Fatalf("Prepare(%s): %v", plan, err)
	}
	return b.Fingerprint()
}

func TestJoinOnEquivalentToCommaJoin(t *testing.T) {
	comma := query4
	for _, joined := range []string{
		`SELECT T2.STRING FROM TOKEN T1 JOIN TOKEN T2 ON T1.DOC_ID=T2.DOC_ID
		 WHERE T1.STRING='Boston' AND T1.LABEL='B-ORG' AND T2.LABEL='B-PER'`,
		`SELECT T2.STRING FROM TOKEN T1 INNER JOIN TOKEN T2 ON T1.DOC_ID=T2.DOC_ID
		 WHERE T1.STRING='Boston' AND T1.LABEL='B-ORG' AND T2.LABEL='B-PER'`,
		// ON may carry the filter conjuncts too: ON is sugar for WHERE.
		`SELECT T2.STRING FROM TOKEN T1 JOIN TOKEN T2
		 ON T1.DOC_ID=T2.DOC_ID AND T1.STRING='Boston' AND T1.LABEL='B-ORG' AND T2.LABEL='B-PER'`,
	} {
		if got, want := fingerprintOf(t, joined), fingerprintOf(t, comma); got != want {
			t.Errorf("JOIN ... ON spelling fingerprints differently:\n  %q\n  got  %s\n  want %s", joined, got, want)
		}
	}
	// And it evaluates: doc 1 holds Boston/B-ORG plus two B-PER tokens.
	bag := run(t, testDB(t), `SELECT T2.STRING FROM TOKEN T1 JOIN TOKEN T2 ON T1.DOC_ID=T2.DOC_ID
		WHERE T1.STRING='Boston' AND T1.LABEL='B-ORG' AND T2.LABEL='B-PER'`)
	if bag.Size() != 2 {
		t.Fatalf("JOIN query size = %d, want 2", bag.Size())
	}
}

func TestInLiteralList(t *testing.T) {
	db := testDB(t)
	if got := run(t, db, `SELECT STRING FROM TOKEN WHERE LABEL IN ('B-PER', 'B-ORG')`).Size(); got != 5 {
		t.Errorf("IN ('B-PER','B-ORG') size = %d, want 5", got)
	}
	if got := run(t, db, `SELECT STRING FROM TOKEN WHERE LABEL NOT IN ('B-PER', 'B-ORG')`).Size(); got != 3 {
		t.Errorf("NOT IN ('B-PER','B-ORG') size = %d, want 3", got)
	}
	if got := run(t, db, `SELECT STRING FROM TOKEN WHERE TOK_ID IN (1, 4, 6)`).Size(); got != 3 {
		t.Errorf("TOK_ID IN (1,4,6) size = %d, want 3", got)
	}
	// A one-element IN is exactly an equality predicate.
	one := fingerprintOf(t, `SELECT STRING FROM TOKEN WHERE LABEL IN ('B-PER')`)
	eq := fingerprintOf(t, `SELECT STRING FROM TOKEN WHERE LABEL='B-PER'`)
	if one != eq {
		t.Errorf("IN ('B-PER') fingerprint %s != LABEL='B-PER' fingerprint %s", one, eq)
	}
}

func TestInSubquery(t *testing.T) {
	// Docs 1 and 2 contain a B-ORG token; doc 3 does not. Selecting every
	// token whose document has one yields 7 of the 8 fixture rows.
	bag := run(t, testDB(t),
		`SELECT T.STRING FROM TOKEN T WHERE T.DOC_ID IN (SELECT T1.DOC_ID FROM TOKEN T1 WHERE T1.LABEL='B-ORG')`)
	if bag.Size() != 7 {
		t.Fatalf("IN-subquery size = %d, want 7", bag.Size())
	}
	if got := bag.Count(relstore.Tuple{relstore.String("the")}.Key()); got != 0 {
		t.Errorf("doc 3 token leaked through the IN-subquery (count=%d)", got)
	}
}

func TestExists(t *testing.T) {
	// EXISTS with the same correlation is the same semi-join as the
	// IN-subquery spelling, and the two lower to the same plan.
	exists := `SELECT T.STRING FROM TOKEN T WHERE EXISTS (SELECT * FROM TOKEN T1 WHERE T1.LABEL='B-ORG' AND T1.DOC_ID=T.DOC_ID)`
	in := `SELECT T.STRING FROM TOKEN T WHERE T.DOC_ID IN (SELECT T1.DOC_ID FROM TOKEN T1 WHERE T1.LABEL='B-ORG')`
	if got := run(t, testDB(t), exists).Size(); got != 7 {
		t.Fatalf("EXISTS size = %d, want 7", got)
	}
	if fe, fi := fingerprintOf(t, exists), fingerprintOf(t, in); fe != fi {
		t.Errorf("EXISTS fingerprint %s != equivalent IN-subquery fingerprint %s", fe, fi)
	}
}

func TestDialectRejections(t *testing.T) {
	cases := []struct {
		sql  string
		want string
	}{
		{`SELECT STRING FROM TOKEN T WHERE NOT EXISTS (SELECT * FROM TOKEN T1 WHERE T1.DOC_ID=T.DOC_ID)`,
			"NOT EXISTS is not supported"},
		{`SELECT STRING FROM TOKEN T WHERE T.DOC_ID NOT IN (SELECT T1.DOC_ID FROM TOKEN T1)`,
			"NOT IN with a subquery is not supported"},
		{`SELECT T.STRING FROM TOKEN T WHERE EXISTS (SELECT * FROM TOKEN T1 WHERE T1.LABEL='B-ORG')`,
			"no correlation predicate"},
	}
	for _, tc := range cases {
		_, _, err := Compile(tc.sql)
		if err == nil {
			t.Errorf("Compile(%q) succeeded, want error containing %q", tc.sql, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Compile(%q) error = %q, want substring %q", tc.sql, err, tc.want)
		}
	}
}

func TestExplainParses(t *testing.T) {
	stmt, err := parseStatement(`EXPLAIN SELECT STRING FROM TOKEN WHERE LABEL='B-PER'`)
	if err != nil {
		t.Fatalf("parseStatement(EXPLAIN ...): %v", err)
	}
	if stmt.Explain == nil || stmt.Explain.Select == nil {
		t.Fatalf("EXPLAIN statement = %+v, want Explain wrapping a SELECT", stmt)
	}
	if got := stmt.Kind(); got != "EXPLAIN" {
		t.Errorf("Kind() = %q, want EXPLAIN", got)
	}
	// The plan cache records the wrapped statement's text as the parser
	// located it, whatever the keyword case and spacing around it.
	pc := NewPlanCache(4)
	for sql, want := range map[string]Explain{
		"  explain select STRING from TOKEN ":                  {Query: true, Target: "select STRING from TOKEN"},
		"EXPLAIN ANALYZE\n\tSELECT STRING FROM TOKEN":          {Analyze: true, Query: true, Target: "SELECT STRING FROM TOKEN"},
		"Explain UPDATE TOKEN SET STRING = 'x' WHERE TOK_ID=1": {Target: "UPDATE TOKEN SET STRING = 'x' WHERE TOK_ID=1"},
	} {
		c, _, err := pc.Lookup(sql, UseQuery)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", sql, err)
		}
		if c.Explain == nil || *c.Explain != want {
			t.Errorf("Lookup(%q).Explain = %+v, want %+v", sql, c.Explain, want)
		}
	}
	if c, _, err := pc.Lookup("SELECT STRING FROM TOKEN", UseQuery); err != nil || c.Explain != nil {
		t.Errorf("a plain SELECT looked up as %+v, %v", c, err)
	}
}

func TestPlaceholderCountingAndUnbound(t *testing.T) {
	stmt, err := parseStatement(`SELECT STRING FROM TOKEN WHERE LABEL=? AND DOC_ID=?`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Params != 2 {
		t.Fatalf("Params = %d, want 2", stmt.Params)
	}
	// Compiling a parameterized statement without binding must fail with
	// the prepare hint, not silently treat ? as a value.
	_, _, err = Compile(`SELECT STRING FROM TOKEN WHERE LABEL=?`)
	if err == nil || !strings.Contains(err.Error(), "unbound") {
		t.Errorf("Compile with unbound ? = %v, want unbound-placeholder error", err)
	}
	_, err = CompileExec(`UPDATE TOKEN SET STRING=? WHERE TOK_ID=3`)
	if err == nil || !strings.Contains(err.Error(), "unbound") {
		t.Errorf("CompileExec with unbound ? = %v, want unbound-placeholder error", err)
	}
}

// TestBoundFingerprintMatchesInlined is the prepared-statement identity
// contract, through the path every execution takes (PlanCache.Lookup,
// then Compiled.Bind), at every position the grammar admits a ?: a bound
// SELECT lands on the exact fingerprint of the same query with the
// literals inlined, so result caches and shared views are oblivious to
// which spelling compiled the SQL, and a bound DML statement lowers to
// the inlined spelling's mutation.
func TestBoundFingerprintMatchesInlined(t *testing.T) {
	cases := []struct {
		param   string
		args    []any
		inlined string
	}{
		{`SELECT STRING FROM TOKEN WHERE LABEL=? AND DOC_ID=?`, []any{"B-PER", int64(1)},
			`SELECT STRING FROM TOKEN WHERE LABEL='B-PER' AND DOC_ID=1`},
		{`SELECT STRING FROM TOKEN WHERE LABEL IN (?, ?)`, []any{"B-PER", "B-ORG"},
			`SELECT STRING FROM TOKEN WHERE LABEL IN ('B-PER', 'B-ORG')`},
		{`SELECT STRING FROM TOKEN WHERE LABEL NOT IN (?, 'O') AND TOK_ID < ?`, []any{[]byte("B-ORG"), 7.5},
			`SELECT STRING FROM TOKEN WHERE LABEL NOT IN ('B-ORG', 'O') AND TOK_ID < 7.5`},
		{`SELECT T2.STRING FROM TOKEN T1 JOIN TOKEN T2 ON T1.DOC_ID=T2.DOC_ID
		  WHERE T1.STRING=? AND T1.LABEL='B-ORG' AND T2.LABEL=?`, []any{"Boston", "B-PER"},
			query4},
		{`SELECT T2.STRING FROM TOKEN T1 JOIN TOKEN T2 ON T1.DOC_ID=T2.DOC_ID AND T1.STRING=? AND T1.LABEL=?
		  WHERE T2.LABEL='B-PER'`, []any{"Boston", "B-ORG"},
			query4},
		{`SELECT DOC_ID, COUNT(*) FROM TOKEN WHERE LABEL=? GROUP BY DOC_ID HAVING COUNT(*) > ? AND DOC_ID < ?`,
			[]any{"B-PER", 1, int32(9)},
			`SELECT DOC_ID, COUNT(*) FROM TOKEN WHERE LABEL='B-PER' GROUP BY DOC_ID HAVING COUNT(*) > 1 AND DOC_ID < 9`},
		{`SELECT T.STRING FROM TOKEN T WHERE T.DOC_ID IN (SELECT T1.DOC_ID FROM TOKEN T1 WHERE T1.LABEL=? AND T1.TOK_ID > ?)`,
			[]any{"B-ORG", int64(0)},
			`SELECT T.STRING FROM TOKEN T WHERE T.DOC_ID IN (SELECT T1.DOC_ID FROM TOKEN T1 WHERE T1.LABEL='B-ORG' AND T1.TOK_ID > 0)`},
		{`SELECT T.STRING FROM TOKEN T WHERE EXISTS (SELECT * FROM TOKEN T1 WHERE T1.LABEL=? AND T1.DOC_ID=T.DOC_ID)`,
			[]any{"B-ORG"},
			`SELECT T.STRING FROM TOKEN T WHERE EXISTS (SELECT * FROM TOKEN T1 WHERE T1.LABEL='B-ORG' AND T1.DOC_ID=T.DOC_ID)`},
		{`SELECT T.DOC_ID FROM TOKEN T WHERE
		  (SELECT COUNT(*) FROM TOKEN T1 WHERE T1.LABEL=? AND T.DOC_ID=T1.DOC_ID)
		  =(SELECT COUNT(*) FROM TOKEN T1 WHERE T1.LABEL=? AND T.DOC_ID=T1.DOC_ID)`, []any{"B-PER", "B-ORG"},
			query3},
	}
	pc := NewSchemaPlanCache(testDB(t), 0)
	bind := func(sql string, args []any) *Compiled {
		t.Helper()
		c, _, err := pc.Lookup(sql, UsePrepare)
		if err == nil {
			c, err = c.Bind(args)
		}
		if err != nil {
			t.Fatalf("binding %q to %v: %v", sql, args, err)
		}
		return c
	}
	for _, tc := range cases {
		got, want := bind(tc.param, tc.args), bind(tc.inlined, nil)
		if got.Fingerprint == "" || got.Fingerprint != want.Fingerprint {
			t.Errorf("bound fingerprint of %q = %q, want inlined %s", tc.param, got.Fingerprint, want.Fingerprint)
		}
	}
	dml := []struct {
		param   string
		args    []any
		inlined string
	}{
		{`INSERT INTO TOKEN (TOK_ID, DOC_ID, STRING, LABEL) VALUES (?, ?, ?, 'O'), (?, 4, ?, ?)`,
			[]any{9, int64(4), "a", int32(10), []byte("b"), "B-PER"},
			`INSERT INTO TOKEN (TOK_ID, DOC_ID, STRING, LABEL) VALUES (9, 4, 'a', 'O'), (10, 4, 'b', 'B-PER')`},
		{`UPDATE TOKEN SET STRING=?, LABEL=? WHERE TOK_ID=? AND DOC_ID >= ?`, []any{"x", "O", 3, 1.5},
			`UPDATE TOKEN SET STRING='x', LABEL='O' WHERE TOK_ID=3 AND DOC_ID >= 1.5`},
		{`DELETE FROM TOKEN T WHERE T.TOK_ID IN (?, 4, ?) AND T.STRING != ?`, []any{1, int64(6), "IBM"},
			`DELETE FROM TOKEN T WHERE T.TOK_ID IN (1, 4, 6) AND T.STRING != 'IBM'`},
	}
	for _, tc := range dml {
		got, want := bind(tc.param, tc.args), bind(tc.inlined, nil)
		if got.Mutation == nil || !reflect.DeepEqual(got.Mutation, want.Mutation) {
			t.Errorf("bound %q lowers to %+v, want inlined %+v", tc.param, got.Mutation, want.Mutation)
		}
	}
}

// TestBindValidation pins Bind's argument checks: the count must match
// in both directions, an argument must be of a type the dialect spells
// as a literal, and two argument lists bound in turn do not interfere.
func TestBindValidation(t *testing.T) {
	pc := NewPlanCache(0)
	c, _, err := pc.Lookup(`SELECT STRING FROM TOKEN WHERE LABEL=?`, UseQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Bind([]any{"a", "b"}); err == nil || !strings.Contains(err.Error(), "1 placeholders, got 2") {
		t.Errorf("Bind with too many args = %v", err)
	}
	two, _, err := pc.Lookup(`SELECT STRING FROM TOKEN WHERE LABEL=? AND DOC_ID=?`, UseQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := two.Bind([]any{"a"}); err == nil || !strings.Contains(err.Error(), "2 placeholders, got 1") {
		t.Errorf("Bind with too few args = %v", err)
	}
	if _, err := c.Bind([]any{struct{}{}}); err == nil || !strings.Contains(err.Error(), "unsupported argument type") {
		t.Errorf("Bind with a struct arg = %v", err)
	}
	b1, err := c.Bind([]any{"B-PER"})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := c.Bind([]any{"B-ORG"})
	if err != nil {
		t.Fatal(err)
	}
	if b1.Plan.String() == b2.Plan.String() {
		t.Errorf("binding different values produced identical plans: %s", b1.Plan)
	}
	if again, err := c.Bind([]any{"B-PER"}); err != nil || again != b1 {
		t.Errorf("rebinding the first arguments = %p, %v; want the first entry %p", again, err, b1)
	}
	if want, _, _ := Compile(`SELECT STRING FROM TOKEN WHERE LABEL='B-PER'`); b1.Plan.String() != want.String() {
		t.Errorf("first binding plans %s, want %s", b1.Plan, want)
	}
}
