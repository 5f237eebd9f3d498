package sqlparse

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"factordb/internal/ra"
)

// fingerprintCases are the paper's evaluation queries; the golden file
// pins the fingerprint of each as the plan cache binds it against the
// TOKEN catalog — the statement's one identity, which keys the serving
// engine's result cache (with the output column names) and its per-chain
// shared-view registries.
//
// These values are a compatibility contract: they must not drift across
// releases within one encoding version ("bfp1:"). An intentional
// encoding change must bump the version prefix and regenerate the golden
// file (rerun this test with UPDATE_FINGERPRINTS=1).
//
// The fingerprint hashes the tree ra.Bind returns, which is the
// column-pruned one: query3 and query4 (joins) were re-keyed, under the
// same encoding, when Bind began inserting projections under join
// inputs; query1 and query2 have no join and kept their values. query3
// was re-keyed again when the planner put its subquery filter on the
// group side of the join, and query4 when conjuncts began to sort by
// their bound encoding rather than their text (its Boston side tests
// STRING, column 2, before LABEL, column 3). Fingerprints key in-memory
// caches and view registries only, so a re-key of a plan's tree costs
// nothing persisted.
//
// query4 and query4ranked deliberately share a fingerprint: ORDER BY
// P DESC LIMIT 10 is result-level presentation (the ra.ResultSpec), not
// plan structure, so the ranked query shares the unranked query's
// physical views — only the result cache distinguishes them, by keying
// on (fingerprint, columns, spec, options).
var fingerprintCases = []struct {
	name string
	sql  string
}{
	{"query1", query1},
	{"query2", query2},
	{"query3", query3},
	{"query4", query4},
	{"query4ranked", query4 + ` ORDER BY P DESC LIMIT 10`},
}

var updateFingerprints = os.Getenv("UPDATE_FINGERPRINTS") != ""

func TestFingerprintGolden(t *testing.T) {
	db := testDB(t)
	var lines []string
	got := make(map[string]string, len(fingerprintCases))
	pc := NewSchemaPlanCache(db, 0)
	for _, tc := range fingerprintCases {
		c, _, err := pc.CompileQuery(tc.sql)
		if err != nil {
			t.Fatalf("CompileQuery(%s): %v", tc.name, err)
		}
		got[tc.name] = c.Fingerprint
		lines = append(lines, fmt.Sprintf("%s %s", tc.name, c.Fingerprint))
	}

	golden := filepath.Join("testdata", "fingerprints.golden")
	if updateFingerprints {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (set UPDATE_FINGERPRINTS=1 to generate): %v", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("malformed golden line %q", line)
		}
		fp, ok := got[f[0]]
		if !ok {
			t.Errorf("golden query %q no longer tested", f[0])
			continue
		}
		if fp != f[1] {
			t.Errorf("%s: fingerprint drifted\n got %s\nwant %s\n"+
				"(cached results and shared views key on this; an intentional encoding change must bump the bfp version)",
				f[0], fp, f[1])
		}
		delete(got, f[0])
	}
	for name := range got {
		t.Errorf("query %q missing from golden file (set UPDATE_FINGERPRINTS=1 to regenerate)", name)
	}
}

// TestFingerprintSQLEquivalence drives the canonicalization through the
// SQL front end: spelling variants of the paper queries compile to equal
// fingerprints, and genuinely different queries never collide.
func TestFingerprintSQLEquivalence(t *testing.T) {
	pc := NewSchemaPlanCache(testDB(t), 0)
	fps := func(sql string) string {
		t.Helper()
		c, _, err := pc.CompileQuery(sql)
		if err != nil {
			t.Fatalf("CompileQuery(%q): %v", sql, err)
		}
		return c.Fingerprint
	}

	equiv := []struct {
		name string
		a, b string
	}{
		{"whitespace and keyword case",
			query1,
			"select string \n\t from TOKEN  where LABEL = 'B-PER'"},
		{"redundant single-table qualification",
			query1,
			`SELECT T.STRING FROM TOKEN T WHERE T.LABEL='B-PER'`},
		{"conjunct order",
			`SELECT T2.STRING FROM TOKEN T1, TOKEN T2
			 WHERE T1.STRING='Boston' AND T1.LABEL='B-ORG' AND T1.DOC_ID=T2.DOC_ID AND T2.LABEL='B-PER'`,
			`SELECT T2.STRING FROM TOKEN T1, TOKEN T2
			 WHERE T2.LABEL='B-PER' AND T1.LABEL='B-ORG' AND T1.DOC_ID=T2.DOC_ID AND T1.STRING='Boston'`},
		{"alias renaming",
			`SELECT T2.STRING FROM TOKEN T1, TOKEN T2
			 WHERE T1.STRING='Boston' AND T1.LABEL='B-ORG' AND T1.DOC_ID=T2.DOC_ID AND T2.LABEL='B-PER'`,
			`SELECT B.STRING FROM TOKEN A, TOKEN B
			 WHERE A.STRING='Boston' AND A.LABEL='B-ORG' AND A.DOC_ID=B.DOC_ID AND B.LABEL='B-PER'`},
		{"subquery alias renaming",
			query3,
			strings.NewReplacer("T1", "ZZ", "T.", "OUTER_T.", " T ", " OUTER_T ").Replace(query3)},
		{"unqualified outer IN-subquery column",
			`SELECT TOK_ID FROM TOKEN WHERE DOC_ID IN (SELECT DOC_ID FROM TOKEN WHERE STRING='Boston')`,
			`SELECT T.TOK_ID FROM TOKEN T WHERE T.DOC_ID IN (SELECT T1.DOC_ID FROM TOKEN T1 WHERE T1.STRING='Boston')`},
		{"unqualified outer IN-subquery column after a filter",
			`SELECT TOK_ID FROM TOKEN WHERE LABEL='B-PER' AND DOC_ID IN (SELECT DOC_ID FROM TOKEN WHERE STRING='Boston')`,
			`SELECT T.TOK_ID FROM TOKEN T WHERE T.LABEL='B-PER' AND T.DOC_ID IN (SELECT T1.DOC_ID FROM TOKEN T1 WHERE T1.STRING='Boston')`},
		{"unqualified column in a join",
			`SELECT M.MENTION_ID FROM TOKEN T, MENTION M WHERE LABEL='B-PER' AND T.STRING=M.STRING AND CLUSTER > 0`,
			`SELECT M.MENTION_ID FROM TOKEN T, MENTION M WHERE T.LABEL='B-PER' AND T.STRING=M.STRING AND M.CLUSTER > 0`},
		{"redundant qualification of a bare projection",
			`SELECT T.STRING FROM TOKEN T`,
			`SELECT STRING FROM TOKEN`},
	}
	for _, tc := range equiv {
		if a, b := fps(tc.a), fps(tc.b); a != b {
			t.Errorf("%s: fingerprints differ\n a=%v\n b=%v", tc.name, a, b)
		}
	}

	distinct := []string{query1, query2, query3, query4,
		`SELECT STRING FROM TOKEN WHERE LABEL='B-ORG'`, // different literal than query1
		`SELECT LABEL FROM TOKEN WHERE LABEL='B-PER'`,  // different projection than query1
		query4 + ` ORDER BY STRING LIMIT 3`,            // extra plan-level operator
		// Query 4 with the self-join's roles swapped: the encoding names
		// no alias, yet it tells the join's inputs apart.
		`SELECT T2.STRING FROM TOKEN T1, TOKEN T2
		 WHERE T2.STRING='Boston' AND T2.LABEL='B-ORG' AND T1.DOC_ID=T2.DOC_ID AND T1.LABEL='B-PER'`,
	}
	seen := make(map[string]string)
	for _, sql := range distinct {
		fp := fps(sql)
		if prev, dup := seen[fp]; dup {
			t.Errorf("distinct queries share a fingerprint:\n%s\n%s", prev, sql)
		}
		seen[fp] = sql
	}
}

// TestBoundFingerprintAllocs holds fingerprinting a freshly bound Query 3
// to at most one allocation per node: the memoized string. Each node is
// encoded into one reused stack buffer and hashed without a hasher
// object.
func TestBoundFingerprintAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	db := testDB(t)
	plan, _, err := Compile(query3)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 20
	trees := make([]*ra.Bound, runs+1) // AllocsPerRun calls f once more to warm up
	for i := range trees {
		if trees[i], err = ra.Bind(db, plan); err != nil {
			t.Fatal(err)
		}
	}
	nodes := 0
	var count func(*ra.Bound)
	count = func(b *ra.Bound) {
		nodes++
		for _, c := range b.Children {
			count(c)
		}
	}
	count(trees[0])
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		trees[next].Fingerprint()
		next++
	})
	t.Logf("Query 3: %d nodes, %v allocations per fingerprint", nodes, got)
	if got > float64(nodes) {
		t.Errorf("fingerprinting Query 3's %d-node bound tree allocates %v times, want at most one per node", nodes, got)
	}
}
