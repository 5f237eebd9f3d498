package sqldriver

import (
	"bufio"
	"bytes"
	"context"
	"database/sql"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"factordb"
)

// metric reads one unlabeled series off the database's registry.
func metric(t *testing.T, db *factordb.DB, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	db.Metrics().WriteText(&buf)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
	}
	t.Fatalf("no %s series", name)
	return 0
}

// TestCertainAnswers pins the certain path, on the NER corpus of the
// hidden-column reproductions (4 000 tokens, seed 7), in every mode and
// on every surface — DB.Query, database/sql and POST /query: a query
// that reads no hidden column, one evidence row or a count of every row,
// answers each tuple at P = 1 with the interval [1, 1], where sampling
// gave Wilson's [0.9434, 1], and reports its whole sample budget. It
// walks nothing and samples nothing; served, it mounts no view. The
// database/sql DSN has one seed for corpus and engine, so that surface
// runs at engine seed 7 where the others run at 11: a certain answer
// does not depend on the walk.
func TestCertainAnswers(t *testing.T) {
	const budget = 64
	queries := []string{
		`SELECT STRING FROM TOKEN WHERE TOK_ID = 0`,
		`SELECT COUNT(*) FROM TOKEN`,
	}
	ctx := context.Background()
	want := map[string]string{} // query → its one value, as first answered
	agree := func(surface, sql, got string, p, lo, hi float64, samples int64) {
		t.Helper()
		if p != 1 || lo != 1 || hi != 1 || samples != budget {
			t.Errorf("%s %s: P=%v CI=[%v, %v] samples=%d, want P=1 CI=[1, 1] samples=%d",
				surface, sql, p, lo, hi, samples, budget)
		}
		if w, ok := want[sql]; !ok {
			want[sql] = got
		} else if got != w {
			t.Errorf("%s %s answers %q, another surface %q", surface, sql, got, w)
		}
	}

	for _, mode := range []factordb.Mode{factordb.ModeNaive, factordb.ModeMaterialized, factordb.ModeServed} {
		db, err := factordb.Open(factordb.NER(factordb.NERConfig{Tokens: 4000, Seed: 7}),
			factordb.WithMode(mode), factordb.WithSeed(11), factordb.WithChains(2), factordb.WithSamples(budget))
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		srv := httptest.NewServer(db.Handler())
		defer srv.Close()
		sqlDB, err := sql.Open("factordb", fmt.Sprintf("ner?tokens=4000&seed=7&mode=%s&chains=2&samples=%d", mode, budget))
		if err != nil {
			t.Fatal(err)
		}
		defer sqlDB.Close()
		steps, samples := metric(t, db, "factordb_walk_steps_total"), metric(t, db, "factordb_query_samples_total")

		for _, q := range queries {
			for _, opts := range [][]factordb.QueryOption{{factordb.NoCache()}, nil, nil} { // evaluated, evaluated and cached, hit
				rows, err := db.Query(ctx, q, opts...)
				if err != nil {
					t.Fatal(err)
				}
				var got string
				if rows.Len() != 1 || !rows.Next() || rows.Scan(&got) != nil {
					t.Fatalf("%s DB.Query %s: want one tuple, got %d", mode, q, rows.Len())
				}
				lo, hi := rows.CI()
				agree(mode.String()+" DB.Query", q, got, rows.Prob(), lo, hi, rows.Samples())
				rows.Close()
			}

			body, _ := json.Marshal(map[string]any{"sql": q, "no_cache": true})
			resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var ans struct {
				Tuples []struct {
					Values []string `json:"values"`
					P      float64  `json:"p"`
					Lo     float64  `json:"ci_lo"`
					Hi     float64  `json:"ci_hi"`
				} `json:"tuples"`
				Samples int64 `json:"samples"`
			}
			err = json.NewDecoder(resp.Body).Decode(&ans)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || len(ans.Tuples) != 1 || len(ans.Tuples[0].Values) != 1 {
				t.Fatalf("%s POST /query %s: status %d, %+v, %v", mode, q, resp.StatusCode, ans, err)
			}
			tup := ans.Tuples[0]
			agree(mode.String()+" HTTP", q, tup.Values[0], tup.P, tup.Lo, tup.Hi, ans.Samples)

			var v any
			var p, lo, hi float64
			if err := sqlDB.QueryRowContext(ctx, q).Scan(&v, &p, &lo, &hi); err != nil {
				t.Fatalf("%s database/sql %s: %v", mode, q, err)
			}
			// database/sql reports no sample count; the budget is the DSN's.
			agree(mode.String()+" database/sql", q, fmt.Sprint(v), p, lo, hi, budget)
		}

		if s, n := metric(t, db, "factordb_walk_steps_total"), metric(t, db, "factordb_query_samples_total"); s != steps || n != samples {
			t.Errorf("%s: certain queries walked %v steps and collected %v samples, want none", mode, s-steps, n-samples)
		}
		if mode == factordb.ModeServed {
			resp, err := http.Get(srv.URL + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			var hr struct {
				SharedViews int64 `json:"shared_views"`
			}
			json.NewDecoder(resp.Body).Decode(&hr)
			resp.Body.Close()
			if hr.SharedViews != 0 {
				t.Errorf("served certain queries left %d views mounted", hr.SharedViews)
			}
		}
	}
}
