package factordb

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// openServedCorefDB opens a private served entity-resolution database —
// the cheap workload whose chain worlds live for the engine's lifetime,
// so it absorbs writes.
func openServedCorefDB(t testing.TB) *DB {
	t.Helper()
	return openCorefDB(t, WithMode(ModeServed), WithChains(1))
}

// TestExecFacadeServed drives the write path through the facade: an
// evidence correction is visible to the next query with certainty, with
// no reopen.
func TestExecFacadeServed(t *testing.T) {
	db := openServedCorefDB(t)
	ctx := context.Background()

	res, err := db.Exec(ctx, `UPDATE MENTION SET STRING = 'REVISED' WHERE MENTION_ID = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 1 || res.Epoch != 1 || res.Chains != 1 {
		t.Fatalf("exec result = %+v", res)
	}
	if db.WriteEpoch() != 1 {
		t.Errorf("WriteEpoch = %d", db.WriteEpoch())
	}
	rows, err := db.Query(ctx, `SELECT STRING FROM MENTION WHERE MENTION_ID = 1`, Samples(4))
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatal("post-write query returned no tuples")
	}
	var s string
	if err := rows.Scan(&s); err != nil {
		t.Fatal(err)
	}
	if s != "REVISED" || rows.Prob() != 1 {
		t.Errorf("post-write answer (%q, %v), want (REVISED, 1)", s, rows.Prob())
	}
}

// TestExecErrors pins the facade's write-path error taxonomy: DML parse
// and resolve failures are ErrBadQuery; a closed database is ErrClosed;
// queries handed to Exec (and DML handed to Query) point at the right
// API. Every mode accepts writes: a local coref write commits to the
// prototype world, and the next query sees it with certainty.
func TestExecErrors(t *testing.T) {
	ctx := context.Background()

	for _, mode := range []Mode{ModeNaive, ModeMaterialized} {
		local := openCorefDB(t, WithMode(mode))
		res, err := local.Exec(ctx, `UPDATE MENTION SET STRING = 'LOCAL' WHERE MENTION_ID = 3`)
		if err != nil {
			t.Fatalf("%s coref Exec: %v", mode, err)
		}
		if res.RowsAffected != 1 || res.Epoch != 1 {
			t.Errorf("%s coref exec result = %+v", mode, res)
		}
		rows, err := local.Query(ctx, `SELECT STRING FROM MENTION WHERE MENTION_ID = 3`, Samples(4))
		if err != nil {
			t.Fatal(err)
		}
		var s string
		if !rows.Next() {
			t.Fatalf("%s post-write query returned no tuples", mode)
		}
		if err := rows.Scan(&s); err != nil {
			t.Fatal(err)
		}
		if s != "LOCAL" || rows.Prob() != 1 {
			t.Errorf("%s post-write answer (%q, %v), want (LOCAL, 1)", mode, s, rows.Prob())
		}
		rows.Close()
	}

	served := openServedCorefDB(t)
	if _, err := served.Exec(ctx, `UPDATE MENTION SET`); !errors.Is(err, ErrBadQuery) {
		t.Errorf("parse failure = %v, want ErrBadQuery", err)
	}
	if _, err := served.Exec(ctx, `DELETE FROM NO_SUCH_TABLE`); !errors.Is(err, ErrBadQuery) {
		t.Errorf("resolve failure = %v, want ErrBadQuery", err)
	}
	_, err := served.Exec(ctx, `SELECT STRING FROM MENTION`)
	if !errors.Is(err, ErrBadQuery) || !strings.Contains(err.Error(), "use Query") {
		t.Errorf("SELECT via Exec = %v, want ErrBadQuery pointing at Query", err)
	}
	_, err = served.Query(ctx, `DELETE FROM MENTION`)
	if !errors.Is(err, ErrBadQuery) || !strings.Contains(err.Error(), "use Exec") {
		t.Errorf("DML via Query = %v, want ErrBadQuery pointing at Exec", err)
	}

	lifecycle := openServedCorefDB(t)
	lifecycle.Close()
	if _, err := lifecycle.Exec(ctx, `DELETE FROM MENTION`); !errors.Is(err, ErrClosed) {
		t.Errorf("Exec after Close = %v, want ErrClosed", err)
	}
}

// TestHandlerExecHardening covers POST /exec's malformed-request paths —
// hardened exactly like /query: every bad body answers 400 without
// touching any chain's world, and DML over GET is rejected by method.
func TestHandlerExecHardening(t *testing.T) {
	db := openServedCorefDB(t)
	srv := httptest.NewServer(db.Handler())
	defer srv.Close()

	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/exec", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er struct {
			Error string `json:"error"`
		}
		if resp.StatusCode != http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Error == "" {
				t.Errorf("error response for %.40q lacks an error message (%v)", body, err)
			}
		}
		return resp.StatusCode, er.Error
	}

	cases := []struct {
		name string
		body string
	}{
		{"broken JSON", `{"sql": `},
		{"not JSON at all", `DELETE FROM MENTION`},
		{"unknown field", `{"sql": "DELETE FROM MENTION", "smaples": 5}`},
		{"query-only field", `{"sql": "DELETE FROM MENTION", "samples": 5}`},
		{"trailing garbage", `{"sql": "DELETE FROM MENTION"} {"again": true}`},
		{"oversized body", `{"sql": "DELETE FROM MENTION", "pad": "` +
			strings.Repeat("x", MaxQueryBodyBytes) + `"}`},
		{"missing sql", `{}`},
		{"malformed DML", `{"sql": "UPDATE MENTION SET"}`},
		{"select via exec", `{"sql": "SELECT STRING FROM MENTION"}`},
	}
	for _, c := range cases {
		if got, _ := post(c.body); got != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, got)
		}
	}
	if db.WriteEpoch() != 0 {
		t.Errorf("malformed requests bumped the write epoch to %d", db.WriteEpoch())
	}

	// DML on GET: the method-qualified mux pattern answers 405.
	resp, err := http.Get(srv.URL + "/exec")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /exec status %d, want 405", resp.StatusCode)
	}

	// A well-formed mutation still works after all the rejects, and the
	// committed epoch shows up in /healthz.
	status, _ := post(`{"sql": "UPDATE MENTION SET STRING = 'VIA_HTTP' WHERE MENTION_ID = 0"}`)
	if status != http.StatusOK {
		t.Fatalf("well-formed exec: status %d, want 200", status)
	}
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hr healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hr.WriteEpoch != 1 {
		t.Errorf("healthz write_epoch = %d, want 1", hr.WriteEpoch)
	}
}

// TestHandlerExecReadOnly: no database is read-only — POST /exec on a
// local-mode coref database commits to its prototype world and answers
// 200 like any other write.
func TestHandlerExecReadOnly(t *testing.T) {
	db := openCorefDB(t)
	srv := httptest.NewServer(db.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/exec", "application/json",
		strings.NewReader(`{"sql": "DELETE FROM MENTION"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("local /exec status %d, want 200", resp.StatusCode)
	}
	if db.WriteEpoch() != 1 {
		t.Errorf("local /exec left write epoch %d, want 1", db.WriteEpoch())
	}
}
