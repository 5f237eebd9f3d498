package sqlparse

import (
	"strings"
	"testing"

	"factordb/internal/ra"
	"factordb/internal/relstore"
)

// paper queries, verbatim modulo identifier spelling.
const (
	query1 = `SELECT STRING FROM TOKEN WHERE LABEL='B-PER'`
	query2 = `SELECT COUNT(*) FROM TOKEN WHERE LABEL='B-PER'`
	query3 = `SELECT T.DOC_ID FROM TOKEN T WHERE
		(SELECT COUNT(*) FROM TOKEN T1 WHERE T1.LABEL='B-PER' AND T.DOC_ID=T1.DOC_ID)
		=(SELECT COUNT(*) FROM TOKEN T1 WHERE T1.LABEL='B-ORG' AND T.DOC_ID=T1.DOC_ID)`
	query4 = `SELECT T2.STRING FROM TOKEN T1, TOKEN T2
		WHERE T1.STRING='Boston' AND T1.LABEL='B-ORG'
		AND T1.DOC_ID=T2.DOC_ID AND T2.LABEL='B-PER'`
	// pairQuery is the coreference workload's same-entity query.
	pairQuery = `SELECT M1.MENTION_ID, M2.MENTION_ID FROM MENTION M1, MENTION M2
		WHERE M1.CLUSTER = M2.CLUSTER AND M1.MENTION_ID < M2.MENTION_ID`
)

// parseStatement parses input without arguments, for tests of the
// syntax tree itself.
func parseStatement(input string) (*Statement, error) {
	p := new(parser)
	p.reset(input, nil)
	return p.parseInput()
}

// parseSelect is parseStatement for a SELECT: it returns the query.
func parseSelect(input string) (*Query, error) {
	stmt, err := parseStatement(input)
	if err != nil {
		return nil, err
	}
	return stmt.Select, nil
}

// testDB is the package's test catalog: a small TOKEN relation and an
// empty MENTION relation.
func testDB(t testing.TB) *relstore.DB {
	t.Helper()
	db := relstore.NewDB()
	tok := db.MustCreate(relstore.MustSchema("TOKEN",
		relstore.Column{Name: "TOK_ID", Type: relstore.TInt},
		relstore.Column{Name: "DOC_ID", Type: relstore.TInt},
		relstore.Column{Name: "STRING", Type: relstore.TString},
		relstore.Column{Name: "LABEL", Type: relstore.TString},
	))
	rows := []struct {
		id, doc int64
		s, l    string
	}{
		{1, 1, "Clinton", "B-PER"},
		{2, 1, "visited", "O"},
		{3, 1, "Boston", "B-ORG"},
		{4, 1, "Ortiz", "B-PER"},
		{5, 2, "Boston", "B-LOC"},
		{6, 2, "Smith", "B-PER"},
		{7, 2, "IBM", "B-ORG"},
		{8, 3, "the", "O"},
	}
	for _, r := range rows {
		tok.Insert(relstore.Tuple{relstore.Int(r.id), relstore.Int(r.doc), relstore.String(r.s), relstore.String(r.l)})
	}
	db.MustCreate(relstore.MustSchema("MENTION",
		relstore.Column{Name: "MENTION_ID", Type: relstore.TInt},
		relstore.Column{Name: "STRING", Type: relstore.TString},
		relstore.Column{Name: "CLUSTER", Type: relstore.TInt},
	))
	return db
}

func run(t *testing.T, db *relstore.DB, sql string) *ra.Bag {
	t.Helper()
	plan, _, err := Compile(sql)
	if err != nil {
		t.Fatalf("Compile(%q): %v", sql, err)
	}
	bound, err := ra.Bind(db, plan)
	if err != nil {
		t.Fatalf("Bind(%q): %v", sql, err)
	}
	bag, err := ra.Eval(bound)
	if err != nil {
		t.Fatalf("Eval(%q): %v", sql, err)
	}
	return bag
}

func TestQuery1(t *testing.T) {
	bag := run(t, testDB(t), query1)
	if bag.Size() != 3 {
		t.Fatalf("Query 1 size = %d, want 3", bag.Size())
	}
	if got := bag.Count(relstore.Tuple{relstore.String("Clinton")}.Key()); got != 1 {
		t.Errorf("count(Clinton) = %d", got)
	}
}

func TestQuery2(t *testing.T) {
	rows := run(t, testDB(t), query2).Rows()
	if len(rows) != 1 || rows[0].Tuple[0].AsInt() != 3 {
		t.Fatalf("Query 2 = %v, want single row 3", rows)
	}
}

func TestQuery3(t *testing.T) {
	bag := run(t, testDB(t), query3)
	// doc1: 2 PER vs 1 ORG (no). doc2: 1 vs 1 (yes). doc3: 0 vs 0 (yes).
	want := map[int64]bool{2: true, 3: true}
	got := map[int64]bool{}
	bag.Each(func(_ string, r *ra.BagRow) bool {
		got[r.Tuple[0].AsInt()] = true
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Query 3 docs = %v, want %v", got, want)
	}
	for d := range want {
		if !got[d] {
			t.Errorf("doc %d missing from Query 3 answer", d)
		}
	}
}

func TestQuery4(t *testing.T) {
	bag := run(t, testDB(t), query4)
	// Boston/B-ORG only in doc 1; persons there: Clinton, Ortiz.
	if bag.Len() != 2 {
		t.Fatalf("Query 4 distinct = %d, want 2", bag.Len())
	}
	for _, name := range []string{"Clinton", "Ortiz"} {
		if bag.Count(relstore.Tuple{relstore.String(name)}.Key()) != 1 {
			t.Errorf("%s missing from Query 4 answer", name)
		}
	}
}

func TestGroupBy(t *testing.T) {
	bag := run(t, testDB(t), `SELECT DOC_ID, COUNT(*) AS N FROM TOKEN GROUP BY DOC_ID`)
	if bag.Len() != 3 {
		t.Fatalf("groups = %d, want 3", bag.Len())
	}
	counts := map[int64]int64{}
	bag.Each(func(_ string, r *ra.BagRow) bool {
		counts[r.Tuple[0].AsInt()] = r.Tuple[1].AsInt()
		return true
	})
	if counts[1] != 4 || counts[2] != 3 || counts[3] != 1 {
		t.Errorf("per-doc counts = %v", counts)
	}
}

func TestAggFunctions(t *testing.T) {
	bag := run(t, testDB(t),
		`SELECT MIN(TOK_ID) AS LO, MAX(TOK_ID) AS HI, SUM(TOK_ID) AS S, AVG(TOK_ID) AS A FROM TOKEN`)
	rows := bag.Rows()
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0].Tuple
	if r[0].AsInt() != 1 || r[1].AsInt() != 8 || r[2].AsInt() != 36 || r[3].AsFloat() != 4.5 {
		t.Errorf("aggregates = %v", r)
	}
}

func TestComparisonOperatorsSQL(t *testing.T) {
	cases := []struct {
		sql  string
		want int64
	}{
		{`SELECT STRING FROM TOKEN WHERE TOK_ID < 3`, 2},
		{`SELECT STRING FROM TOKEN WHERE TOK_ID <= 3`, 3},
		{`SELECT STRING FROM TOKEN WHERE TOK_ID > 6`, 2},
		{`SELECT STRING FROM TOKEN WHERE TOK_ID >= 6`, 3},
		{`SELECT STRING FROM TOKEN WHERE TOK_ID != 1`, 7},
		{`SELECT STRING FROM TOKEN WHERE TOK_ID <> 1`, 7},
	}
	for _, c := range cases {
		if got := run(t, testDB(t), c.sql).Size(); got != c.want {
			t.Errorf("%s: size = %d, want %d", c.sql, got, c.want)
		}
	}
}

func TestColEqualsColSameTable(t *testing.T) {
	if got := run(t, testDB(t), `SELECT STRING FROM TOKEN WHERE TOK_ID = DOC_ID`).Size(); got != 1 {
		t.Errorf("size = %d, want 1 (row 1)", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		sql  string
		frag string
	}{
		{``, "expected"},
		{`SELECT`, "expected"},
		{`SELECT X`, "expected \"FROM\""},
		{`SELECT X FROM`, "expected"},
		{`SELECT X FROM T WHERE`, "expected"},
		{`SELECT X FROM T WHERE A ==`, "expected"},
		{`SELECT X FROM T extra junk`, "trailing input"},
		{`SELECT X FROM T WHERE A = 'unterminated`, "unterminated"},
		{`SELECT X FROM T WHERE A ! B`, "unexpected '!'"},
		{`SELECT X FROM T WHERE A = 12.5.5`, "malformed number"},
		{`SELECT X FROM T, T`, "duplicate table alias"},
		{`SELECT X FROM T GROUP BY X`, "GROUP BY without aggregates"},
		{`SELECT X, COUNT(*) FROM T`, "must appear in GROUP BY"},
		{`SELECT X FROM T WHERE (SELECT STRING FROM U WHERE A=B)=(SELECT COUNT(*) FROM U WHERE A=B)`, "COUNT(*)"},
		{`SELECT X FROM T WHERE (SELECT COUNT(*) FROM U U1 WHERE U1.A=1)=(SELECT COUNT(*) FROM U U1 WHERE T.B=U1.B)`, "no correlation"},
	}
	for _, c := range cases {
		_, _, err := Compile(c.sql)
		if err == nil {
			t.Errorf("Compile(%q) succeeded, want error containing %q", c.sql, c.frag)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Compile(%q) error %q does not contain %q", c.sql, err, c.frag)
		}
	}
}

// TestPlannerErrorPaths exercises planQuery's own validation, including
// branches the parser cannot reach through Compile (it rejects an empty
// FROM clause syntactically before planning).
func TestPlannerErrorPaths(t *testing.T) {
	// Empty FROM: only reachable by planning a hand-built AST.
	q := &Query{Items: []SelectItem{{Col: ColName{Name: "X"}}}}
	if _, _, err := planQuery(q, nil); err == nil || !strings.Contains(err.Error(), "no FROM clause") {
		t.Errorf("empty FROM: %v", err)
	}

	// Duplicate alias, through the planner directly and through Compile.
	q = &Query{
		Items: []SelectItem{{Col: ColName{Qual: "T", Name: "X"}}},
		From:  []TableRef{{Name: "TOKEN", Alias: "T"}, {Name: "TOKEN", Alias: "T"}},
	}
	if _, _, err := planQuery(q, nil); err == nil || !strings.Contains(err.Error(), "duplicate table alias") {
		t.Errorf("duplicate alias: %v", err)
	}
	if _, _, err := Compile(`SELECT A.X FROM TOKEN A, OTHER A`); err == nil ||
		!strings.Contains(err.Error(), "duplicate table alias") {
		t.Error("Compile should reject duplicate aliases across different tables")
	}

	// Unknown alias referenced in WHERE.
	for _, sql := range []string{
		`SELECT T.X FROM TOKEN T WHERE U.Y = 1`,
		`SELECT T.X FROM TOKEN T WHERE T.X = U.Y`,
	} {
		if _, _, err := Compile(sql); err == nil || !strings.Contains(err.Error(), "unknown table alias") {
			t.Errorf("Compile(%q): %v", sql, err)
		}
	}

	// A subquery predicate may only reference the subquery's own alias.
	sql := `SELECT T.A FROM T, S WHERE
		(SELECT COUNT(*) FROM U U1 WHERE T.A=U1.A AND S.B=1)
		=(SELECT COUNT(*) FROM U U2 WHERE T.A=U2.A)`
	if _, _, err := Compile(sql); err == nil || !strings.Contains(err.Error(), "foreign alias") {
		t.Errorf("foreign alias in subquery: %v", err)
	}

	// Multiple correlation predicates in one subquery.
	sql = `SELECT T.A FROM T WHERE
		(SELECT COUNT(*) FROM U U1 WHERE T.A=U1.A AND T.B=U1.B)
		=(SELECT COUNT(*) FROM U U2 WHERE T.A=U2.A)`
	if _, _, err := Compile(sql); err == nil || !strings.Contains(err.Error(), "multiple correlation") {
		t.Errorf("multiple correlation predicates: %v", err)
	}
}

// TestUnknownTableFailsAtBind confirms where the unknown-table error
// lives: the planner is catalog-free, so a missing relation surfaces when
// the plan is bound against a database.
func TestUnknownTableFailsAtBind(t *testing.T) {
	plan, _, err := Compile(`SELECT X FROM NO_SUCH_TABLE`)
	if err != nil {
		t.Fatalf("Compile should not consult the catalog: %v", err)
	}
	_, err = ra.Bind(testDB(t), plan)
	if err == nil || !strings.Contains(err.Error(), "NO_SUCH_TABLE") {
		t.Errorf("Bind against missing table: %v", err)
	}
}

func TestSubEqValidation(t *testing.T) {
	// Different tables in the two subqueries.
	sql := `SELECT T.A FROM T WHERE
		(SELECT COUNT(*) FROM U U1 WHERE T.A=U1.A)
		=(SELECT COUNT(*) FROM V V1 WHERE T.A=V1.A)`
	if _, _, err := Compile(sql); err == nil || !strings.Contains(err.Error(), "different tables") {
		t.Errorf("want different-tables error, got %v", err)
	}
	// Different correlation columns.
	sql = `SELECT T.A FROM T WHERE
		(SELECT COUNT(*) FROM U U1 WHERE T.A=U1.A)
		=(SELECT COUNT(*) FROM U U2 WHERE T.B=U2.A)`
	if _, _, err := Compile(sql); err == nil || !strings.Contains(err.Error(), "same column pair") {
		t.Errorf("want same-column-pair error, got %v", err)
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	if got := run(t, testDB(t), `select string from TOKEN where label='B-PER'`).Size(); got != 3 {
		t.Errorf("lowercase keywords: size = %d, want 3", got)
	}
}

func TestCrossJoinNoCondition(t *testing.T) {
	bag := run(t, testDB(t), `SELECT A.STRING, B.STRING FROM TOKEN A, TOKEN B WHERE A.LABEL='B-ORG' AND B.LABEL='B-LOC'`)
	// 2 B-ORG × 1 B-LOC.
	if bag.Size() != 2 {
		t.Errorf("cross size = %d, want 2", bag.Size())
	}
}

func TestBindFailsOnUnknownColumnAtBindTime(t *testing.T) {
	plan, _, err := Compile(`SELECT NOPE FROM TOKEN`)
	if err != nil {
		t.Fatalf("Compile should defer column resolution: %v", err)
	}
	if _, err := ra.Bind(testDB(t), plan); err == nil {
		t.Error("Bind should reject unknown column")
	}
	// A plan cache with the catalog qualifies unqualified WHERE columns,
	// but not one that no FROM table or several have: bind rejects it.
	pc := NewSchemaPlanCache(testDB(t), 0)
	for sql, want := range map[string]string{
		`SELECT T1.STRING FROM TOKEN T1, MENTION M WHERE NOPE = 1`:       "unknown column NOPE",
		`SELECT T1.STRING FROM TOKEN T1, TOKEN T2 WHERE LABEL = 'B-PER'`: "ambiguous column reference LABEL",
	} {
		if _, _, err := pc.CompileQuery(sql); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("CompileQuery(%q) = %v, want %q", sql, err, want)
		}
	}
}

func TestErrorPositions(t *testing.T) {
	cases := []struct {
		name string
		sql  string
		want string // the "line L column C" fragment the error must carry
	}{
		// Parser error on line 1: "FROM" missing after the select list.
		{"missing from", `SELECT STRING, FROM TOKEN`, "line 1 column 16"},
		// Parser error on a later line: bad operand after '=' — the
		// keyword WHERE cannot start an operand. Offsets are bytes into
		// the full text; the position must restart per line.
		{"bad operand line 2", "SELECT STRING FROM TOKEN\nWHERE LABEL = WHERE", "line 2 column 15"},
		// Lexer error: unterminated string literal.
		{"unterminated string", "SELECT STRING FROM TOKEN WHERE LABEL='B-PER", "line 1 column 38"},
		// Lexer error: stray character on line 3.
		{"bad char line 3", "SELECT STRING\nFROM TOKEN\nWHERE LABEL ; 'B-PER'", "line 3 column 13"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseSelect(tc.sql)
			if err == nil {
				t.Fatalf("parseSelect(%q) succeeded, want error", tc.sql)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("parseSelect(%q) error = %q, want it to contain %q", tc.sql, err, tc.want)
			}
		})
	}
}

func TestLineCol(t *testing.T) {
	input := "ab\ncde\nf"
	for _, tc := range []struct{ off, line, col int }{
		{0, 1, 1}, {1, 1, 2}, {2, 1, 3}, // the newline itself is on line 1
		{3, 2, 1}, {6, 2, 4}, {7, 3, 1}, {8, 3, 2}, {99, 3, 2},
	} {
		if l, c := lineCol(input, tc.off); l != tc.line || c != tc.col {
			t.Errorf("lineCol(%d) = %d:%d, want %d:%d", tc.off, l, c, tc.line, tc.col)
		}
	}
}
