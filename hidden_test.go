package factordb

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"factordb/internal/ie"
	"factordb/internal/relstore"
)

// openHiddenNER opens the NER database the hidden-column reproductions
// ran on: 4 000 tokens at corpus seed 7, two chains, 64 samples a query.
func openHiddenNER(t *testing.T, seed int64, opts ...Option) *DB {
	t.Helper()
	db, err := Open(NER(NERConfig{Tokens: 4000, Seed: 7}),
		append([]Option{WithSeed(seed), WithChains(2), WithSamples(64)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// hiddenAnswer is a query's answer as tuple → marginal, with whether it
// came from the result cache.
func hiddenAnswer(t *testing.T, db *DB, sql string, opts ...QueryOption) (map[string]float64, bool) {
	t.Helper()
	rows, err := db.Query(context.Background(), sql, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	out := map[string]float64{}
	for rows.Next() {
		var s string
		if err := rows.Scan(&s); err != nil {
			t.Fatal(err)
		}
		out[s] = rows.Prob()
	}
	return out, rows.Cached()
}

// refused checks that sql fails as a bad query naming TOKEN.LABEL.
func refused(t *testing.T, db *DB, sql string) {
	t.Helper()
	_, err := db.Exec(context.Background(), sql)
	if !errors.Is(err, ErrBadQuery) || !strings.Contains(err.Error(), "TOKEN.LABEL") {
		t.Errorf("%s = %v, want ErrBadQuery naming TOKEN.LABEL", sql, err)
	}
}

// TestHiddenLabelWriteRefused is the first reproduction of the
// undeclared hidden column: UPDATE TOKEN SET LABEL = 'B-PER' WHERE
// DOC_ID = 3 used to commit 178 rows into the store but not into the
// tagger's state, and the expected size of document 3's B-PER answer
// went from 16.8 to 140.2 (materialized) and from 18.7 to 161.1
// (served). It is now refused before the WAL append, over the facade
// and over HTTP (400), and the answers do not move: materialized
// repeats its walk exactly, served answers from the same cache entry.
func TestHiddenLabelWriteRefused(t *testing.T) {
	const (
		q     = `SELECT TOK_ID FROM TOKEN WHERE DOC_ID = 3 AND LABEL = 'B-PER'`
		write = `UPDATE TOKEN SET LABEL = 'B-PER' WHERE DOC_ID = 3`
	)
	for _, mode := range []Mode{ModeMaterialized, ModeServed} {
		t.Run(mode.String(), func(t *testing.T) {
			db := openHiddenNER(t, 11, WithMode(mode), WithDataDir(t.TempDir()), WithFsync(FsyncNever))
			var opts []QueryOption
			if mode == ModeMaterialized {
				opts = append(opts, NoCache())
			}
			before, _ := hiddenAnswer(t, db, q, opts...)
			if len(before) == 0 {
				t.Fatal("document 3 has no B-PER candidates at this seed")
			}
			wal := db.Durability().WALBytes

			refused(t, db, write)
			srv := httptest.NewServer(db.Handler())
			defer srv.Close()
			body, _ := json.Marshal(execRequest{SQL: write})
			resp, err := http.Post(srv.URL+"/exec", "application/json", strings.NewReader(string(body)))
			if err != nil {
				t.Fatal(err)
			}
			var er errorResponse
			json.NewDecoder(resp.Body).Decode(&er)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(er.Error, "TOKEN.LABEL") {
				t.Errorf("POST /exec %s: %d %q, want 400 naming TOKEN.LABEL", write, resp.StatusCode, er.Error)
			}

			if got := db.Durability().WALBytes; db.WriteEpoch() != 0 || got != wal {
				t.Fatalf("the refused write moved the write epoch to %d and the WAL from %d to %d bytes",
					db.WriteEpoch(), wal, got)
			}
			after, cached := hiddenAnswer(t, db, q, opts...)
			if mode == ModeServed && !cached {
				t.Error("the answer cached before the refused write missed after it")
			}
			if len(after) != len(before) {
				t.Fatalf("answer moved: %d tuples before, %d after", len(before), len(after))
			}
			for tup, p := range before {
				if after[tup] != p {
					t.Errorf("tuple %s: P %v before, %v after", tup, p, after[tup])
				}
			}
		})
	}
}

// TestHiddenPredicateWriteRefused is the second reproduction: UPDATE
// TOKEN SET STRING = 'Zed' WHERE LABEL = 'B-PER' resolved against chain
// 0's current sample, so it changed 0 rows before any read and 338, 367
// and 367 rows after one 64-sample read under engine seeds 11, 12 and
// 13, and the WAL made that one draw permanent. It is refused under
// every seed, before and after a read. The writes the benchmark's
// mixed_rw workload issues select on evidence and still commit.
func TestHiddenPredicateWriteRefused(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{11, 12, 13} {
		db := openHiddenNER(t, seed, WithMode(ModeServed))
		refused(t, db, `UPDATE TOKEN SET STRING = 'Zed' WHERE LABEL = 'B-PER'`)
		if _, err := db.Query(ctx, `SELECT TOK_ID FROM TOKEN WHERE DOC_ID = 3 AND LABEL = 'B-PER'`, NoCache()); err != nil {
			t.Fatal(err)
		}
		refused(t, db, `UPDATE TOKEN SET STRING = 'Zed' WHERE LABEL = 'B-PER'`)
		refused(t, db, `DELETE FROM TOKEN WHERE LABEL = 'B-PER'`)
		if db.WriteEpoch() != 0 {
			t.Fatalf("seed %d: refused writes moved the write epoch to %d", seed, db.WriteEpoch())
		}
	}

	db := openHiddenNER(t, 11, WithMode(ModeServed))
	for _, sql := range []string{
		`UPDATE TOKEN SET STRING = 'w0' WHERE TOK_ID = 123`,
		`INSERT INTO TOKEN (TOK_ID, DOC_ID, STRING, LABEL, TRUTH) VALUES (10000000, 9000000, 'ins', 'O', 'O')`,
		`DELETE FROM TOKEN WHERE DOC_ID = 9000000`,
	} {
		if res, err := db.Exec(ctx, sql); err != nil || res.RowsAffected != 1 {
			t.Errorf("%s = %+v, %v; want one row committed", sql, res, err)
		}
	}
}

// TestHiddenDeclarationSurvivesReopen: a snapshot does not carry the
// hidden-column declaration, so the model declares it again on the world
// a data directory recovers — TOKEN.LABEL and no other column — and the
// recovered world still refuses a write to it.
func TestHiddenDeclarationSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(durableNER(), durableOpts(dir)...)
	if err != nil {
		t.Fatal(err)
	}
	execN(t, db, 3)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	re, err := Open(durableNER(), durableOpts(dir)...)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.WriteEpoch() != 3 {
		t.Fatalf("recovered write epoch %d, want 3", re.WriteEpoch())
	}
	rel, err := re.sys.WorldDB().Relation(ie.TokenRelation)
	if err != nil {
		t.Fatal(err)
	}
	if got := hiddenCols(rel.Schema()); len(got) != 1 || got[0] != "LABEL" {
		t.Errorf("recovered TOKEN declares %v hidden, want [LABEL]", got)
	}
	refused(t, re, `UPDATE TOKEN SET LABEL = 'O' WHERE TOK_ID = 1`)
}

// hiddenCols lists the columns sch declares hidden.
func hiddenCols(sch *relstore.Schema) []string {
	var out []string
	for i, c := range sch.Cols {
		if sch.Hidden(i) {
			out = append(out, c.Name)
		}
	}
	return out
}
