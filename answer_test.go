package factordb

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"factordb/internal/serve"
)

// queryResponse is the POST /query answer as one struct — the rendering
// writeAnswer replaced, kept as the reference its bytes must equal.
type queryResponse struct {
	SQL        string      `json:"sql"`
	Columns    []string    `json:"columns,omitempty"`
	Tuples     []tupleJSON `json:"tuples"`
	Samples    int64       `json:"samples"`
	Chains     int         `json:"chains"`
	Epoch      int64       `json:"epoch"`
	Confidence float64     `json:"confidence"`
	Partial    bool        `json:"partial"`
	EarlyStop  bool        `json:"early_stop,omitempty"`
	Cached     bool        `json:"cached"`
	ElapsedMS  float64     `json:"elapsed_ms"`
	Trace      *QueryTrace `json:"trace,omitempty"`
}

// referenceBody renders res for sql through encoding/json, field by field
// from the result, as handleQuery did before answers kept their bytes.
func referenceBody(t *testing.T, sql string, res *serve.Result) []byte {
	t.Helper()
	resp := queryResponse{
		SQL:        sql,
		Columns:    res.Columns(),
		Tuples:     make([]tupleJSON, res.Len()),
		Samples:    res.Samples,
		Chains:     res.Chains,
		Epoch:      res.Epoch,
		Confidence: res.Confidence,
		Partial:    res.Partial,
		EarlyStop:  res.EarlyStop,
		Cached:     res.Cached,
		ElapsedMS:  float64(res.Elapsed.Microseconds()) / 1000,
		Trace:      res.Trace,
	}
	for i := range resp.Tuples {
		vals := make([]string, res.Width(i))
		for j := range vals {
			vals[j] = res.Value(i, j).String()
		}
		lo, hi := res.CI(i)
		resp.Tuples[i] = tupleJSON{Values: vals, P: res.Prob(i), Lo: lo, Hi: hi}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAnswerBodyOracle checks that every /query body writeAnswer produces
// equals the encoding/json rendering of the same result, byte for byte,
// across the shapes a response takes — and that a hit reuses the bytes
// its miss encoded rather than encoding them again.
func TestAnswerBodyOracle(t *testing.T) {
	db := openServedCorefDB(t)
	ctx := context.Background()
	const base = `SELECT STRING FROM MENTION WHERE MENTION_ID < 6`
	query := func(sql string, args []any, opts ...QueryOption) *serve.Result {
		t.Helper()
		rows, err := db.query(ctx, sql, args, append(opts, Samples(8)))
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		return rows.res
	}
	check := func(name, sql string, res *serve.Result) {
		t.Helper()
		rec := httptest.NewRecorder()
		writeAnswer(rec, sql, res)
		got, want := rec.Body.Bytes(), referenceBody(t, sql, res)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: body\n%s\nwant\n%s", name, got, want)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(got)) {
			t.Errorf("%s: Content-Length %s for a %d-byte body", name, cl, len(got))
		}
	}

	miss := query(base, nil)
	if miss.Cached {
		t.Fatal("first evaluation came from the cache")
	}
	check("miss", base, miss)
	hit := query(base, nil)
	if !hit.Cached || hit.Trace != nil {
		t.Fatalf("second evaluation: cached=%v traced=%v, want an untraced hit", hit.Cached, hit.Trace != nil)
	}
	check("hit", base, hit)
	if a, b := miss.Encoded(encodeAnswer), hit.Encoded(encodeAnswer); &a[0] != &b[0] {
		t.Error("a cache hit encoded its answer again instead of sharing the miss's bytes")
	}
	variant := "select   STRING\n\tfrom MENTION where MENTION_ID<6"
	if res := query(variant, nil); !res.Cached {
		t.Error("spelling variant missed the cache")
	} else {
		check("spelling-variant hit", variant, res)
	}
	check("? args", `SELECT STRING FROM MENTION WHERE MENTION_ID < ?`,
		query(`SELECT STRING FROM MENTION WHERE MENTION_ID < ?`, []any{int64(6)}))
	traced := query(base, nil, Trace())
	if !traced.Cached || traced.Trace == nil {
		t.Fatalf("traced repeat: cached=%v traced=%v, want a traced hit", traced.Cached, traced.Trace != nil)
	}
	check("traced hit", base, traced)
	check("no_cache", base, query(base, nil, NoCache()))
	check("EXPLAIN", "EXPLAIN "+base, query("EXPLAIN "+base, nil))
	empty := query(`SELECT STRING FROM MENTION WHERE MENTION_ID < 0`, nil)
	if empty.Len() != 0 {
		t.Fatalf("empty answer has %d tuples", empty.Len())
	}
	check("empty answer", `SELECT STRING FROM MENTION WHERE MENTION_ID < 0`, empty)
	// An early stop needs a clean marginal gap; the flag is set on a
	// private answer here, before anything encoded it.
	stopped := query(base+` ORDER BY P DESC LIMIT 2`, nil, NoCache())
	stopped.EarlyStop = true
	check("early_stop", base+` ORDER BY P DESC LIMIT 2`, stopped)
	html := "SELECT STRING FROM MENTION WHERE MENTION_ID < 6 AND MENTION_ID >= 0 AND STRING <> 'a&b\u2028c\u2029'"
	check("HTML-escaped SQL", html, query(html, nil))

	// The same bytes over the real handler: a hit's body is the answer's.
	srv := httptest.NewServer(db.Handler())
	defer srv.Close()
	for _, sql := range []string{base, variant, html} {
		body, _ := json.Marshal(queryRequest{SQL: sql, Samples: 8})
		resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		got.ReadFrom(resp.Body)
		resp.Body.Close()
		if want := referenceBody(t, sql, query(sql, nil)); !bytes.Equal(got.Bytes(), want) {
			t.Errorf("POST /query %q: body\n%s\nwant\n%s", sql, got.Bytes(), want)
		}
	}
}
