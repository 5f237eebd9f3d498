package factordb

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// jsonLogger builds the machine-readable logger the daemon's
// -log-format json flag would: JSON records, all levels.
func jsonLogger(w io.Writer) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

// TestMetricsContentType pins the exposition handler's exact Content-Type:
// Prometheus text format 0.0.4. Scrapers negotiate on the version
// parameter, so this header is a wire contract, not a default.
func TestMetricsContentType(t *testing.T) {
	db := openServedCorefDB(t)
	srv := httptest.NewServer(db.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	const want = "text/plain; version=0.0.4; charset=utf-8"
	if got := resp.Header.Get("Content-Type"); got != want {
		t.Errorf("/metrics Content-Type = %q, want %q", got, want)
	}
}

// TestExplainAnalyzeFacade drives EXPLAIN ANALYZE through the facade in
// both engines: the annotated plan flows back as ordinary PLAN rows with
// per-operator actual-row counts, the world analyzed — the prototype, in
// both, since the target reads no hidden column — and the plan-cache
// line; the root operator's actual rows match what the plain query
// returns. EXPLAIN ANALYZE of DML is refused — a write cannot be
// executed speculatively.
func TestExplainAnalyzeFacade(t *testing.T) {
	analyze := func(t *testing.T, db *DB, sql string) []string {
		t.Helper()
		rows, err := db.Query(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		if cols := rows.Columns(); len(cols) != 1 || cols[0] != "PLAN" {
			t.Fatalf("EXPLAIN ANALYZE columns = %v, want [PLAN]", cols)
		}
		var lines []string
		for rows.Next() {
			var line string
			if err := rows.Scan(&line); err != nil {
				t.Fatal(err)
			}
			lines = append(lines, line)
		}
		return lines
	}
	check := func(t *testing.T, db *DB, wantChains string) {
		t.Helper()
		const target = `SELECT STRING FROM MENTION WHERE MENTION_ID = 1`
		lines := analyze(t, db, "EXPLAIN ANALYZE "+target)
		if len(lines) < 4 {
			t.Fatalf("EXPLAIN ANALYZE returned %d lines: %v", len(lines), lines)
		}
		// The root operator reports actual rows normalized per run — the
		// WHERE on the key matches exactly one mention, same as the query.
		if !strings.Contains(lines[0], "actual rows=1 ") {
			t.Errorf("root operator line %q does not report actual rows=1", lines[0])
		}
		joined := strings.Join(lines, "\n")
		for _, want := range []string{
			"est rows=", "time=", "analyze: runs=",
			"bound fingerprint: bfp1:", wantChains, "plan cache: miss",
		} {
			if !strings.Contains(joined, want) {
				t.Errorf("EXPLAIN ANALYZE output lacks %q:\n%s", want, joined)
			}
		}
		// Second run compiles through the shared plan cache.
		if again := strings.Join(analyze(t, db, "EXPLAIN ANALYZE "+target), "\n"); !strings.Contains(again, "plan cache: hit") {
			t.Errorf("second EXPLAIN ANALYZE missed the plan cache:\n%s", again)
		}
		// DML cannot be analyzed: it would have to commit to measure.
		if _, err := db.Query(context.Background(), `EXPLAIN ANALYZE DELETE FROM MENTION`); err == nil ||
			!strings.Contains(err.Error(), "not supported") {
			t.Errorf("EXPLAIN ANALYZE DML = %v, want a not-supported error", err)
		}
	}
	t.Run("local", func(t *testing.T) {
		check(t, openCorefDB(t), "analyzed: the prototype world")
	})
	t.Run("served", func(t *testing.T) {
		check(t, openCorefDB(t, WithMode(ModeServed), WithChains(2)), "analyzed: the prototype world")
	})
}

// TestReadmeExplainAnalyzeSample runs the statement behind README's
// EXPLAIN ANALYZE sample on the database it names — the default coref
// model, served on two chains — and holds the sample's operator lines
// to the output, timings masked.
func TestReadmeExplainAnalyzeSample(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	const heading = "### `EXPLAIN ANALYZE`"
	_, section, ok := strings.Cut(string(readme), heading)
	if !ok {
		t.Fatalf("README has no %q section", heading)
	}
	_, block, ok := strings.Cut(section, "```\n")
	if !ok {
		t.Fatal("README's EXPLAIN ANALYZE section has no sample block")
	}
	block, _, _ = strings.Cut(block, "```")
	const stmt = "EXPLAIN ANALYZE SELECT STRING FROM MENTION M WHERE MENTION_ID = 1"
	if !strings.Contains(section[:strings.Index(section, block)], stmt) {
		t.Fatalf("README's sample is not introduced by %q", stmt)
	}
	db, err := Open(Coref(CorefConfig{}), WithMode(ModeServed), WithChains(2))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rows, err := db.Query(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var got []string
	for rows.Next() {
		var line string
		if err := rows.Scan(&line); err != nil {
			t.Fatal(err)
		}
		got = append(got, line)
	}
	timing := regexp.MustCompile(`time=\S+ \S+%`)
	operators := func(lines []string) string {
		var ops []string
		for _, l := range lines {
			if strings.HasPrefix(l, "analyze: ") {
				break
			}
			ops = append(ops, timing.ReplaceAllString(l, "time=…"))
		}
		return strings.Join(ops, "\n")
	}
	if want, have := operators(strings.Split(block, "\n")), operators(got); want != have {
		t.Errorf("README's EXPLAIN ANALYZE operator lines are stale:\nREADME:\n%s\nrun:\n%s\nfull output:\n%s",
			want, have, strings.Join(got, "\n"))
	}
}

// TestExplainShowsBoundPlan pins what plain EXPLAIN renders: the tree as
// bound. Query 3's token side reads only DOC_ID, so the plan shows the
// projection column pruning put under that join input and says so;
// Query 1 has no join and is shown as written. Query 4's person side is
// filtered by the documents its Boston side's evidence reaches, and
// Query 3's is not. An evidence-only query is marked certain.
func TestExplainShowsBoundPlan(t *testing.T) {
	db := sharedDB(t, ModeMaterialized)
	explain := func(sql string) string {
		t.Helper()
		rows, err := db.Query(context.Background(), "EXPLAIN "+sql)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		var lines []string
		for rows.Next() {
			var line string
			if err := rows.Scan(&line); err != nil {
				t.Fatal(err)
			}
			lines = append(lines, line)
		}
		return strings.Join(lines, "\n")
	}
	q3 := explain(Query3)
	for _, want := range []string{
		"  Join[T.DOC_ID=_g0.DOC_ID]\n    Project[T.DOC_ID]\n      Scan(TOKEN AS T)\n    Project[_g0.DOC_ID]\n      Select[(_sqa0 = _sqb0)]\n        GroupAgg[",
		"\ncolumn pruning: ", "\nbound fingerprint: bfp1:", "\nview sharing: fresh",
	} {
		if !strings.Contains(q3, want) {
			t.Errorf("EXPLAIN of Query 3 lacks %q:\n%s", want, q3)
		}
	}
	if strings.Contains(q3, "key filter") {
		t.Errorf("EXPLAIN of Query 3 shows a key filter, but its token side has no selection:\n%s", q3)
	}
	// Query 4's Boston side reads STRING, which is evidence, so a view
	// keeps only the persons of documents holding a "Boston" token.
	if q4 := explain(Query4); !strings.Contains(q4, "\nkey filter: right side keeps DOC_ID of TOKEN T1 rows where (T1.STRING = \"Boston\")\n") {
		t.Errorf("EXPLAIN of Query 4 lacks its key filter:\n%s", q4)
	}
	if q1 := explain(Query1); strings.Contains(q1, "column pruning") || !strings.Contains(q1, "bound fingerprint: bfp1:") {
		t.Errorf("EXPLAIN of Query 1 (no join, nothing to prune):\n%s", q1)
	}
	// A plan that reads no hidden column is marked certain instead of
	// reporting a view it will never mount.
	if ev := explain(`SELECT STRING FROM TOKEN WHERE TOK_ID = 0`); !strings.Contains(ev, "\ncertain: reads no hidden column") || strings.Contains(ev, "view sharing") {
		t.Errorf("EXPLAIN of an evidence-only query is not marked certain:\n%s", ev)
	}
}

// TestTraceparentHeader pins the W3C trace-context handshake on the HTTP
// transport: a well-formed inbound traceparent's trace-id is adopted —
// echoed on the response header and stamped into the returned trace —
// while a missing or malformed header gets a server-assigned ID instead.
func TestTraceparentHeader(t *testing.T) {
	for h, want := range map[string]string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01": "4bf92f3577b34da6a3ce929d0e0e4736",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01": "4bf92f3577b34da6a3ce929d0e0e4736", // case-normalized
		"":                             "",
		"not-a-traceparent":            "",
		"00-short-00f067aa0ba902b7-01": "",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01":   "",                                 // all-zero forbidden
		"00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01":   "",                                 // non-hex
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01":   "",                                 // version ff forbidden
		"0g-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01":   "",                                 // non-hex version
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0z":   "",                                 // non-hex flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902zz-01":   "",                                 // non-hex parent-id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01":   "",                                 // all-zero parent-id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-x": "",                                 // version 00 has four fields
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-011":  "",                                 // flags wider than two
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-x": "4bf92f3577b34da6a3ce929d0e0e4736", // a later version may append fields
	} {
		if got := parseTraceparent(h); got != want {
			t.Errorf("parseTraceparent(%q) = %q, want %q", h, got, want)
		}
	}

	db := openServedCorefDB(t)
	srv := httptest.NewServer(db.Handler())
	defer srv.Close()

	post := func(path, body, traceparent string) (*http.Response, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if traceparent != "" {
			req.Header.Set("traceparent", traceparent)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		echo := resp.Header.Get("traceparent")
		parts := strings.Split(echo, "-")
		if len(parts) != 4 || parts[0] != "00" || len(parts[1]) != 32 || len(parts[2]) != 16 {
			t.Fatalf("response traceparent %q is not well-formed", echo)
		}
		return resp, parts[1]
	}

	const clientID = "4bf92f3577b34da6a3ce929d0e0e4736"
	clientTP := "00-" + clientID + "-00f067aa0ba902b7-01"

	// Query with a client traceparent: the trace-id is adopted end to end.
	resp, tid := post("/query",
		`{"sql": "SELECT STRING FROM MENTION WHERE MENTION_ID = 0", "samples": 2, "trace": true}`, clientTP)
	var qr struct {
		Trace *QueryTrace `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if tid != clientID {
		t.Errorf("query response echoes trace-id %q, want the client's %q", tid, clientID)
	}
	if qr.Trace == nil || qr.Trace.TraceID != clientID {
		t.Errorf("query trace carries trace_id %v, want %q", qr.Trace, clientID)
	}

	// No header: the server assigns a fresh non-zero ID.
	resp, tid = post("/query", `{"sql": "SELECT STRING FROM MENTION WHERE MENTION_ID = 0", "samples": 2}`, "")
	resp.Body.Close()
	if tid == clientID || tid == strings.Repeat("0", 32) {
		t.Errorf("server-assigned trace-id %q, want a fresh non-zero one", tid)
	}

	// Exec with a client traceparent and tracing on: same adoption.
	resp, tid = post("/exec",
		`{"sql": "UPDATE MENTION SET STRING = 'TP' WHERE MENTION_ID = 0", "trace": true}`, clientTP)
	var er struct {
		Trace *QueryTrace `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if tid != clientID {
		t.Errorf("exec response echoes trace-id %q, want the client's %q", tid, clientID)
	}
	if er.Trace == nil || er.Trace.TraceID != clientID || er.Trace.Kind != "exec" {
		t.Errorf("exec trace = %+v, want kind exec with the client's trace_id", er.Trace)
	}
}

// TestExecTraceFacade pins ExecTrace through the facade on both engines:
// the result carries a contiguous exec-kind trace that also lands in
// RecentTraces, and untraced writes stay dark. The durable local
// database exercises the resolve/wal_append/fsync/apply span chain.
func TestExecTraceFacade(t *testing.T) {
	checkExecTrace := func(t *testing.T, tr *QueryTrace, wantSpans []string) {
		t.Helper()
		if tr == nil {
			t.Fatal("traced exec returned no trace")
		}
		if tr.Kind != "exec" || tr.Outcome != "ok" {
			t.Fatalf("trace kind=%q outcome=%q, want exec/ok", tr.Kind, tr.Outcome)
		}
		if len(tr.TraceID) != 32 {
			t.Fatalf("trace_id %q is not 32 hex chars", tr.TraceID)
		}
		have := map[string]bool{}
		var sum int64
		for i, s := range tr.Spans {
			have[s.Name] = true
			if i > 0 {
				prev := tr.Spans[i-1]
				if s.StartNS != prev.StartNS+prev.DurNS {
					t.Fatalf("span %q starts at %d, previous ended at %d",
						s.Name, s.StartNS, prev.StartNS+prev.DurNS)
				}
			}
			sum += s.DurNS
		}
		if got := sum + tr.Spans[0].StartNS; got != tr.WallNS {
			t.Fatalf("spans tile %dns of %dns wall time", got, tr.WallNS)
		}
		for _, name := range wantSpans {
			if !have[name] {
				t.Errorf("exec trace is missing span %q (have %+v)", name, tr.Spans)
			}
		}
	}
	t.Run("served", func(t *testing.T) {
		db := openServedCorefDB(t)
		res, err := db.Exec(context.Background(),
			`UPDATE MENTION SET STRING = 'T1' WHERE MENTION_ID = 1`, ExecTrace())
		if err != nil {
			t.Fatal(err)
		}
		checkExecTrace(t, res.Trace, []string{"compile", "resolve", "fanout", "burn_in", "republish", "cache_invalidate"})
		found := false
		for _, rt := range db.RecentTraces() {
			if rt.TraceID == res.Trace.TraceID {
				found = true
			}
		}
		if !found {
			t.Error("served exec trace did not land in RecentTraces")
		}
		// Untraced writes stay dark.
		res2, err := db.Exec(context.Background(), `UPDATE MENTION SET STRING = 'T2' WHERE MENTION_ID = 1`)
		if err != nil {
			t.Fatal(err)
		}
		if res2.Trace != nil {
			t.Errorf("untraced exec carries a trace: %+v", res2.Trace)
		}
	})
	t.Run("durableLocal", func(t *testing.T) {
		db, err := Open(durableNER(), durableOpts(t.TempDir())...)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		res, err := db.Exec(context.Background(),
			`UPDATE TOKEN SET STRING = 'traced' WHERE TOK_ID = 1`,
			ExecTrace(), ExecTraceID(strings.Repeat("cd", 16)))
		if err != nil {
			t.Fatal(err)
		}
		checkExecTrace(t, res.Trace, []string{"compile", "resolve", "wal_append", "fsync", "apply"})
		if res.Trace.TraceID != strings.Repeat("cd", 16) {
			t.Errorf("trace_id %q, want the propagated one", res.Trace.TraceID)
		}
		if db.RecentTraces()[0].TraceID != res.Trace.TraceID {
			t.Error("local exec trace did not lead RecentTraces")
		}
	})
}

// syncBuffer serializes writes so the slog handler can be drained safely
// while the database may still be logging.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func (b *syncBuffer) lines(t *testing.T) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %q (%v)", line, err)
		}
		out = append(out, rec)
	}
	return out
}

func recordsOf(recs []map[string]any, msg string) []map[string]any {
	var out []map[string]any
	for _, r := range recs {
		if r["msg"] == msg {
			out = append(out, r)
		}
	}
	return out
}

// TestSlowQueryLogAndAudit arms the slow-query log with a threshold every
// operation crosses and checks the two record families end to end on both
// engines: slow_query records carry trace ID, kind, outcome, wall time
// and span breakdown — and their trace IDs resolve in RecentTraces even
// though the operations never opted into tracing — while every write
// leaves a write.audit record. The record shapes are one contract: a
// local-mode database that commits a real write must log exactly the
// served run's key sets.
func TestSlowQueryLogAndAudit(t *testing.T) {
	// keys of the newest slow_query record of each kind plus the newest
	// write.audit record, keyed "slow_query/query", "write.audit", ...
	type keySets map[string]string
	check := func(t *testing.T, db *DB, buf *syncBuffer, table, key string) keySets {
		t.Helper()
		ctx := context.Background()
		rows, err := db.Query(ctx, `SELECT STRING FROM `+table+` WHERE `+key+` = 0`, Samples(2), NoCache())
		if err != nil {
			t.Fatal(err)
		}
		rows.Close()
		if _, err := db.Exec(ctx, `UPDATE `+table+` SET STRING = 'SLOW' WHERE `+key+` = 0`); err != nil {
			t.Fatal(err)
		}
		keys := keySets{}
		keysOf := func(r map[string]any) string {
			ks := make([]string, 0, len(r))
			for k := range r {
				ks = append(ks, k)
			}
			sort.Strings(ks)
			return strings.Join(ks, " ")
		}

		recs := buf.lines(t)
		slow := recordsOf(recs, "slow_query")
		if len(slow) == 0 {
			t.Fatal("no slow_query records with a 1ns threshold")
		}
		kinds := map[string]bool{}
		for _, r := range slow {
			tid, _ := r["trace_id"].(string)
			if len(tid) != 32 {
				t.Errorf("slow_query trace_id %q is not 32 hex chars", tid)
			}
			kind, _ := r["kind"].(string)
			kinds[kind] = true
			keys["slow_query/"+kind] = keysOf(r)
			if r["sql"] == "" || r["outcome"] == "" {
				t.Errorf("slow_query record incomplete: %v", r)
			}
			wall, _ := r["wall_ns"].(float64)
			thr, _ := r["threshold_ns"].(float64)
			if thr <= 0 || wall < thr {
				t.Errorf("slow_query wall_ns=%v threshold_ns=%v", wall, thr)
			}
			spans, _ := r["span_ns"].(map[string]any)
			if len(spans) == 0 {
				t.Errorf("slow_query record has no span_ns breakdown: %v", r)
			}
			// Spans tile the wall time: none negative, no overlap.
			var sum float64
			for name, v := range spans {
				ns, _ := v.(float64)
				if ns < 0 {
					t.Errorf("slow_query span %s has negative duration %v", name, ns)
				}
				sum += ns
			}
			if sum > wall {
				t.Errorf("slow_query spans sum to %vns, over wall_ns %v: %v", sum, wall, r)
			}
			// The log's trace ID must resolve on /debug/traces.
			found := false
			for _, rt := range db.RecentTraces() {
				if rt.TraceID == tid {
					found = true
				}
			}
			if !found {
				t.Errorf("slow_query trace_id %s does not resolve in RecentTraces", tid)
			}
		}
		if !kinds["query"] {
			t.Errorf("no query-kind slow_query record (kinds %v)", kinds)
		}
		if !kinds["exec"] {
			t.Errorf("no exec-kind slow_query record (kinds %v)", kinds)
		}
		audits := recordsOf(recs, "write.audit")
		if len(audits) == 0 {
			t.Fatal("write left no write.audit record")
		}
		a := audits[len(audits)-1]
		keys["write.audit"] = keysOf(a)
		if a["outcome"] != "ok" || a["rows_affected"].(float64) != 1 || a["epoch"].(float64) < 1 {
			t.Errorf("write.audit record = %v, want ok/1 row/epoch >= 1", a)
		}
		return keys
	}
	var served keySets
	t.Run("served", func(t *testing.T) {
		buf := &syncBuffer{}
		db := openCorefDB(t, WithMode(ModeServed), WithChains(1),
			WithLogger(jsonLogger(buf)), WithSlowQueryLog(time.Nanosecond))
		served = check(t, db, buf, "MENTION", "MENTION_ID")
	})
	t.Run("local", func(t *testing.T) {
		buf := &syncBuffer{}
		db := openCorefDB(t, WithLogger(jsonLogger(buf)), WithSlowQueryLog(time.Nanosecond))
		check(t, db, buf, "MENTION", "MENTION_ID")
	})
	t.Run("localWrite", func(t *testing.T) {
		buf := &syncBuffer{}
		db, err := Open(durableNER(), WithMode(ModeMaterialized), WithSteps(50),
			WithLogger(jsonLogger(buf)), WithSlowQueryLog(time.Nanosecond))
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		got := check(t, db, buf, "TOKEN", "TOK_ID")
		for rec, want := range served {
			if got[rec] != want {
				t.Errorf("%s keys under ModeMaterialized = [%s], served logs [%s]", rec, got[rec], want)
			}
		}
	})
}

// TestStartupTraceAfterRecovery reopens a durable database and checks the
// startup trace: a recovery-kind trace on Status/statusz whose contiguous
// spans cover snapshot load and WAL replay, with the replayed-record
// count attached where the recovery report says it should be.
func TestStartupTraceAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(durableNER(), durableOpts(dir)...)
	if err != nil {
		t.Fatal(err)
	}
	if db.Status().StartupTrace == nil {
		t.Error("fresh durable open reports no startup trace")
	}
	execN(t, db, 2)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(durableNER(), durableOpts(dir)...)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	st := re.Status().StartupTrace
	if st == nil {
		t.Fatal("recovered database reports no startup trace")
	}
	if st.Kind != "recovery" || st.Outcome != "ok" {
		t.Fatalf("startup trace kind=%q outcome=%q, want recovery/ok", st.Kind, st.Outcome)
	}
	if len(st.TraceID) != 32 {
		t.Errorf("startup trace_id %q is not 32 hex chars", st.TraceID)
	}
	var sum int64
	names := map[string]map[string]string{}
	for i, s := range st.Spans {
		names[s.Name] = s.Attrs
		if i > 0 {
			prev := st.Spans[i-1]
			if s.StartNS != prev.StartNS+prev.DurNS {
				t.Errorf("span %q starts at %d, previous ended at %d", s.Name, s.StartNS, prev.StartNS+prev.DurNS)
			}
		}
		sum += s.DurNS
	}
	if sum != st.WallNS {
		t.Errorf("startup spans sum to %dns, wall is %dns", sum, st.WallNS)
	}
	if _, ok := names["snapshot_load"]; !ok {
		t.Errorf("startup trace has no snapshot_load span (have %+v)", st.Spans)
	}
	replay, ok := names["wal_replay"]
	if !ok {
		t.Fatalf("startup trace has no wal_replay span (have %+v)", st.Spans)
	}
	d := re.Durability()
	if want := "2"; replay["replayed_records"] != want || d.ReplayedRecords != 2 {
		t.Errorf("wal_replay attrs %v with durability %+v, want replayed_records=2 on both", replay, d)
	}

	// The same trace serves on /statusz.
	srv := httptest.NewServer(re.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got Status
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.StartupTrace == nil || got.StartupTrace.TraceID != st.TraceID {
		t.Errorf("/statusz startup trace = %+v, want the one with trace_id %s", got.StartupTrace, st.TraceID)
	}
}
