package sqldriver

import (
	"context"
	"database/sql"
	"net/url"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"factordb"
)

// rawDB returns the factordb.DB behind a database/sql handle.
func rawDB(t *testing.T, db *sql.DB) *factordb.DB {
	t.Helper()
	c, err := db.Conn(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var fdb *factordb.DB
	if err := c.Raw(func(dc any) error { fdb = dc.(*conn).db; return nil }); err != nil {
		t.Fatal(err)
	}
	return fdb
}

var docsRE = regexp.MustCompile(`(\d+) docs`)

// describedDocs parses the document count out of an NER Describe line.
func describedDocs(t *testing.T, desc string) int {
	t.Helper()
	m := docsRE.FindStringSubmatch(desc)
	if m == nil {
		t.Fatalf("Describe %q shows no document count", desc)
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

// TestDSNParameters sets every DSN parameter at least once and asserts
// each effect that is visible from outside the engine. A parameter added
// to dsnKeys without a case here fails it.
func TestDSNParameters(t *testing.T) {
	const corpus = "tokens=800&train_steps=2000&seed=3"
	covered := map[string]bool{} // "<model>/<key>" per case, and "/<key>"
	for _, tc := range []struct {
		name, dsn, sql string
		check          func(t *testing.T, db *factordb.DB, rows *factordb.Rows)
	}{{
		name: "ner served",
		dsn: "ner?" + corpus + "&tokens_per_doc=50&temperature=2&linear=true" +
			"&mode=served&chains=2&burn=40&steps=20&samples=8&confidence=0.8",
		sql: factordb.Query1,
		check: func(t *testing.T, db *factordb.DB, rows *factordb.Rows) {
			desc := db.Describe()
			for _, want := range []string{"skip=false", "[served]"} {
				if !strings.Contains(desc, want) {
					t.Errorf("Describe %q lacks %q", desc, want)
				}
			}
			if n := describedDocs(t, desc); n <= 10 {
				t.Errorf("tokens_per_doc=50 over 800 tokens gave %d docs, want > 10", n)
			}
			if db.Mode() != factordb.ModeServed || db.Chains() != 2 || rows.Chains() != 2 {
				t.Errorf("mode %v with %d chains (rows %d), want served with 2", db.Mode(), db.Chains(), rows.Chains())
			}
			if rows.Confidence() != 0.8 || rows.Samples() < 8 {
				t.Errorf("confidence %v over %d samples, want 0.8 over >= 8", rows.Confidence(), rows.Samples())
			}
			// Each chain walked its burn-in, then whole epochs of steps.
			for i, c := range db.Status().Pool {
				if c.Steps < 40+20 || (c.Steps-40)%20 != 0 {
					t.Errorf("chain %d walked %d steps, want 40 burn-in + a positive multiple of 20", i, c.Steps)
				}
			}
		},
	}, {
		name: "ner defaults",
		dsn:  "ner?" + corpus + "&mode=materialized&samples=4",
		sql:  factordb.Query1,
		check: func(t *testing.T, db *factordb.DB, rows *factordb.Rows) {
			desc := db.Describe()
			if !strings.Contains(desc, "skip=true") || !strings.Contains(desc, "[materialized]") {
				t.Errorf("Describe %q, want a skip-chain materialized database", desc)
			}
			if n := describedDocs(t, desc); n >= 10 {
				t.Errorf("default document length over 800 tokens gave %d docs, want < 10", n)
			}
			if db.Chains() != 1 || rows.Confidence() != 0.95 {
				t.Errorf("%d chains at confidence %v, want 1 at the default 0.95", db.Chains(), rows.Confidence())
			}
		},
	}, {
		name: "coref naive",
		dsn:  "coref?entities=3&mentions=2&seed=4&mode=naive&samples=4&confidence=0.9",
		sql:  factordb.PairQuery,
		check: func(t *testing.T, db *factordb.DB, rows *factordb.Rows) {
			if desc := db.Describe(); !strings.Contains(desc, "6 mentions of 3 entities") ||
				!strings.Contains(desc, "[naive]") {
				t.Errorf("Describe %q, want 6 mentions of 3 entities under naive", desc)
			}
			if rows.Confidence() != 0.9 {
				t.Errorf("confidence %v, want 0.9", rows.Confidence())
			}
		},
	}} {
		model, query, _ := strings.Cut(tc.dsn, "?")
		params, err := url.ParseQuery(query)
		if err != nil {
			t.Fatal(err)
		}
		for key := range params {
			covered[model+"/"+key], covered["/"+key] = true, true
		}
		t.Run(tc.name, func(t *testing.T) {
			sdb, err := sql.Open("factordb", tc.dsn)
			if err != nil {
				t.Fatal(err)
			}
			defer sdb.Close()
			db := rawDB(t, sdb)
			rows, err := db.Query(context.Background(), tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			defer rows.Close()
			tc.check(t, db, rows)
		})
	}
	for model, keys := range dsnKeys {
		for _, key := range keys {
			if !covered[model+"/"+key] {
				t.Errorf("no case sets DSN parameter %q (model %q)", key, model)
			}
		}
	}
}

// FuzzParseDSN: parseDSN never panics, and a DSN it accepts sets only
// parameters the model or the engine reads.
func FuzzParseDSN(f *testing.F) {
	for _, dsn := range []string{
		"ner", "ner?tokens=800&seed=3&mode=served&chains=2&confidence=0.8",
		"coref?entities=3&mentions=2&seed=4&mode=naive", "ner?sampels=64",
		"ner?target=Boston", "coref?tokens=5", "ner?tokens=100;seed=2", "mystery?tokens=1", "",
	} {
		f.Add(dsn)
	}
	f.Fuzz(func(t *testing.T, dsn string) {
		if _, _, err := parseDSN(dsn); err != nil {
			return
		}
		model, query, _ := strings.Cut(dsn, "?")
		params, err := url.ParseQuery(query)
		if err != nil {
			t.Fatalf("parseDSN accepted %q, whose parameters do not parse: %v", dsn, err)
		}
		for key := range params {
			if !slices.Contains(dsnKeys[model], key) && !slices.Contains(dsnKeys[""], key) {
				t.Errorf("parseDSN accepted %q, which sets the unknown parameter %q", dsn, key)
			}
		}
	})
}

// TestDriverOpenCloses is the regression test for a leak: a conn from
// Driver.Open builds its own database, so its Close must release it —
// the served pool's chain goroutines included.
func TestDriverOpenCloses(t *testing.T) {
	base := runtime.NumGoroutine()
	c, err := (&Driver{}).Open("coref?entities=2&mentions=2&mode=served&chains=2")
	if err != nil {
		t.Fatal(err)
	}
	if runtime.NumGoroutine() <= base {
		t.Fatal("served database started no chain goroutines")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before Open", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
