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
// pins both fingerprint levels for each:
//
//   - the logical fingerprint of the compiled (canonical) plan, which
//     keys the serving engine's result cache, and
//   - the structural fingerprint of the plan bound against the TOKEN
//     catalog, which keys the per-chain shared-view registries.
//
// These values are a compatibility contract: they must not drift across
// releases within one encoding version ("qfp1:"/"bfp1:"), because cached
// results and shared views are keyed by them. An intentional encoding
// change must bump the version prefixes and regenerate the golden file
// (rerun this test with UPDATE_FINGERPRINTS=1).
//
// The bound fingerprint hashes the tree ra.Bind returns, which is the
// column-pruned one: query3 and query4 (joins) were re-keyed, under the
// same encoding, when Bind began inserting projections under join
// inputs; query1 and query2 have no join and kept their values. query3
// was re-keyed again, at both levels, when the planner put its subquery
// filter on the group side of the join. Bound fingerprints key
// in-memory view registries only, so a re-key of a plan's tree costs
// nothing persisted.
//
// query4 and query4ranked deliberately share both fingerprints: ORDER BY
// P DESC LIMIT 10 is result-level presentation (the ra.ResultSpec), not
// plan structure, so the ranked query shares the unranked query's
// physical views — only the result cache distinguishes them, by keying
// on (fingerprint, spec, options).
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
	got := make(map[string][2]string, len(fingerprintCases))
	for _, tc := range fingerprintCases {
		plan, _, err := Compile(tc.sql)
		if err != nil {
			t.Fatalf("Compile(%s): %v", tc.name, err)
		}
		logical := ra.PlanFingerprint(plan)
		bound, err := ra.Bind(db, plan)
		if err != nil {
			t.Fatalf("Bind(%s): %v", tc.name, err)
		}
		got[tc.name] = [2]string{logical, bound.Fingerprint()}
		lines = append(lines, fmt.Sprintf("%s %s %s", tc.name, logical, bound.Fingerprint()))
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
		if len(f) != 3 {
			t.Fatalf("malformed golden line %q", line)
		}
		want, ok := got[f[0]]
		if !ok {
			t.Errorf("golden query %q no longer tested", f[0])
			continue
		}
		if want[0] != f[1] {
			t.Errorf("%s: logical fingerprint drifted\n got %s\nwant %s\n"+
				"(cached results key on this; an intentional canonical-form change must bump the qfp version)",
				f[0], want[0], f[1])
		}
		if want[1] != f[2] {
			t.Errorf("%s: bound fingerprint drifted\n got %s\nwant %s\n"+
				"(shared views key on this; an intentional encoding change must bump the bfp version)",
				f[0], want[1], f[2])
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
	db := testDB(t)
	fps := func(sql string) [2]string {
		t.Helper()
		plan, _, err := Compile(sql)
		if err != nil {
			t.Fatalf("Compile(%q): %v", sql, err)
		}
		bound, err := ra.Bind(db, plan)
		if err != nil {
			t.Fatalf("Bind(%q): %v", sql, err)
		}
		return [2]string{ra.PlanFingerprint(plan), bound.Fingerprint()}
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
	}
	seen := make(map[[2]string]string)
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
