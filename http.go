package factordb

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"factordb/internal/serve"
)

// queryRequest is the POST /query body. Args are positional values for
// the statement's ? placeholders (strings and JSON numbers; integral
// numbers bind as integers, fractional ones as floats).
type queryRequest struct {
	SQL        string  `json:"sql"`
	Args       []any   `json:"args,omitempty"`
	Samples    int     `json:"samples,omitempty"`
	TimeoutMS  int     `json:"timeout_ms,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
	NoCache    bool    `json:"no_cache,omitempty"`
	Trace      bool    `json:"trace,omitempty"`
}

// tupleJSON is one answer tuple on the wire.
type tupleJSON struct {
	Values []string `json:"values"`
	P      float64  `json:"p"`
	Lo     float64  `json:"ci_lo"`
	Hi     float64  `json:"ci_hi"`
}

// answerJSON is the part of a POST /query answer that is the same for
// every request of one evaluation: the members between "sql" and
// "cached", then "elapsed_ms". The whole response is
//
//	{"sql":…,"columns":…,"tuples":…,"samples":…,"chains":…,"epoch":…,
//	 "confidence":…,"partial":…[,"early_stop":true],"cached":…,
//	 "elapsed_ms":…[,"trace":…]}
type answerJSON struct {
	Columns    []string    `json:"columns,omitempty"`
	Tuples     []tupleJSON `json:"tuples"`
	Samples    int64       `json:"samples"`
	Chains     int         `json:"chains"`
	Epoch      int64       `json:"epoch"`
	Confidence float64     `json:"confidence"`
	Partial    bool        `json:"partial"`
	EarlyStop  bool        `json:"early_stop,omitempty"`
	ElapsedMS  float64     `json:"elapsed_ms"`
}

// execRequest is the POST /exec body. Args bind ? placeholders, as in
// queryRequest.
type execRequest struct {
	SQL       string `json:"sql"`
	Args      []any  `json:"args,omitempty"`
	TimeoutMS int    `json:"timeout_ms,omitempty"`
	Trace     bool   `json:"trace,omitempty"`
}

// execResponse is the POST /exec answer.
type execResponse struct {
	SQL          string      `json:"sql"`
	RowsAffected int64       `json:"rows_affected"`
	Epoch        int64       `json:"epoch"`
	Chains       int         `json:"chains"`
	ElapsedMS    float64     `json:"elapsed_ms"`
	Trace        *QueryTrace `json:"trace,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

type healthResponse struct {
	Status     string  `json:"status"`
	Mode       string  `json:"mode"`
	Chains     int     `json:"chains"`
	Epoch      int64   `json:"epoch"`
	WriteEpoch int64   `json:"write_epoch"`
	UptimeS    float64 `json:"uptime_s"`
	// Chain-health summary: the MH acceptance rate over every walk-step
	// taken so far and the live shared-view count (served mode only).
	AcceptanceRate float64 `json:"acceptance_rate"`
	SharedViews    int64   `json:"shared_views"`
	// Durability reports the snapshot+WAL store; null without a data dir.
	Durability *DurabilityStatus `json:"durability,omitempty"`
}

// MaxQueryTimeout caps the per-request timeout a client may ask for.
const MaxQueryTimeout = 5 * time.Minute

// DefaultQueryTimeout applies when the request does not set one.
const DefaultQueryTimeout = 30 * time.Second

// MaxQueryBodyBytes bounds the POST /query request body. Query requests
// are a few hundred bytes of SQL and options; anything near the cap is
// either abuse or a client bug, and must not buffer unbounded memory.
const MaxQueryBodyBytes = 1 << 20

// Handler returns the database's HTTP API, the transport cmd/factordbd
// serves. It works under every mode; ModeServed is the one built for
// concurrent load.
//
//	POST /query    {"sql": "...", "samples": 128, "timeout_ms": 5000}
//	POST /exec     {"sql": "UPDATE ...", "timeout_ms": 5000}
//	GET  /healthz  liveness and chain-pool status
//	GET  /metrics  Prometheus text exposition
//	GET  /statusz  introspection: live views, sampler health, cache
//
// DML travels only over POST /exec: the method-qualified patterns make
// the mux answer 405 for a GET of either mutation or query endpoint.
// Debug endpoints (pprof, recent traces) are deliberately NOT here —
// they live on DebugHandler, which deployments bind to a separate,
// non-public listener.
func (db *DB) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", db.handleQuery)
	mux.HandleFunc("POST /exec", db.handleExec)
	mux.HandleFunc("GET /healthz", db.handleHealthz)
	mux.HandleFunc("GET /metrics", db.handleMetrics)
	mux.HandleFunc("GET /statusz", db.handleStatusz)
	return mux
}

// DebugHandler returns the operator-only endpoints — Go pprof profiles
// and the recent query traces:
//
//	GET /debug/pprof/...   net/http/pprof profiles
//	GET /debug/traces      recent query traces, newest first (JSON)
//
// It is a separate handler, not part of Handler: profiles and traces can
// leak query text and timing, so cmd/factordbd only serves them when the
// -debug-addr flag opts in, typically on localhost.
func (db *DB) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /debug/traces", db.handleTraces)
	return mux
}

// decodeBody applies the shared request hardening: bounded body size,
// unknown fields rejected (a misspelled option silently ignored is worse
// than an error), trailing garbage rejected. Every failure is a client
// error; decodeBody writes the 400 itself and reports whether to proceed.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, MaxQueryBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	// Placeholder args decode into interface{} slots; UseNumber keeps
	// them as json.Number so integers survive undamaged (a float64
	// round-trip would corrupt large int64 keys).
	dec.UseNumber()
	if err := dec.Decode(dst); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "invalid JSON body: " + err.Error()})
		return false
	}
	if _, err := dec.Token(); err != io.EOF {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "trailing data after JSON body"})
		return false
	}
	return true
}

// bindableArgs converts decoded JSON placeholder arguments into the
// types the binder accepts: json.Number becomes int64 when integral,
// float64 otherwise; strings pass through. Anything else (bool, null,
// nested values) is left as-is for the binder to reject with a
// positioned error.
func bindableArgs(args []any) []any {
	if len(args) == 0 {
		return nil
	}
	out := make([]any, len(args))
	for i, a := range args {
		if n, ok := a.(json.Number); ok {
			if v, err := n.Int64(); err == nil {
				out[i] = v
				continue
			}
			if v, err := n.Float64(); err == nil {
				out[i] = v
				continue
			}
		}
		out[i] = a
	}
	return out
}

// parseTraceparent extracts the 32-hex trace-id field of a W3C
// traceparent header ("00-<trace-id>-<parent-id>-<flags>"). Malformed
// headers return "" and the request proceeds untraced rather than
// failing: a wrong width or separator, a non-hex field, an all-zero
// trace-id or parent-id, the forbidden version ff, or a version-00 header
// with fields after the flags (only a later version may append fields).
// Hex digits are accepted in either case; the ID comes back lower-case.
func parseTraceparent(h string) string {
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return ""
	}
	version, id, parent, flags := h[:2], h[3:35], h[36:52], h[53:55]
	if len(h) > 55 && (version == "00" || h[55] != '-') {
		return ""
	}
	if !isHex(version) || strings.EqualFold(version, "ff") || !isHex(flags) ||
		!isHex(parent) || allZero(parent) || !isHex(id) || allZero(id) {
		return ""
	}
	return strings.ToLower(id)
}

// isHex reports whether s is all hex digits, in either case.
func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F') {
			return false
		}
	}
	return true
}

// allZero reports whether s is all '0' digits.
func allZero(s string) bool { return strings.Trim(s, "0") == "" }

// traceContext resolves the request's W3C trace ID — the client's
// traceparent when present and well-formed, a fresh one otherwise — and
// echoes it back on the response so the caller can stitch the server's
// trace (and any slow-query or audit record, which carry the same ID)
// into its distributed trace.
func (db *DB) traceContext(w http.ResponseWriter, r *http.Request) string {
	// The response's parent-id is the serial of a freshly minted ID.
	serial, tid := db.eng.MintTraceID()
	if client := parseTraceparent(r.Header.Get("traceparent")); client != "" {
		tid = client
	}
	w.Header().Set("traceparent", fmt.Sprintf("00-%s-%016x-01", tid, uint64(serial)))
	return tid
}

// requestTimeout resolves the client's timeout_ms: zero means
// DefaultQueryTimeout, anything above MaxQueryTimeout is clamped to it,
// and a negative value is a client error — like decodeBody, it writes the
// 400 itself and reports whether to proceed.
func requestTimeout(w http.ResponseWriter, ms int) (time.Duration, bool) {
	if ms < 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("timeout_ms %d is negative", ms)})
		return 0, false
	}
	if ms == 0 {
		return DefaultQueryTimeout, true
	}
	return min(time.Duration(ms)*time.Millisecond, MaxQueryTimeout), true
}

func (db *DB) handleExec(w http.ResponseWriter, r *http.Request) {
	var req execRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.SQL == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing \"sql\" field"})
		return
	}
	timeout, ok := requestTimeout(w, req.TimeoutMS)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	opts := []ExecOption{ExecTraceID(db.traceContext(w, r))}
	if req.Trace {
		opts = append(opts, ExecTrace())
	}
	res, err := db.exec(ctx, req.SQL, bindableArgs(req.Args), opts)
	if err != nil {
		writeJSON(w, statusFor(err), errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, execResponse{
		SQL:          req.SQL,
		RowsAffected: res.RowsAffected,
		Epoch:        res.Epoch,
		Chains:       res.Chains,
		ElapsedMS:    float64(res.Elapsed.Microseconds()) / 1000,
		Trace:        res.Trace,
	})
}

func (db *DB) handleQuery(w http.ResponseWriter, r *http.Request) {
	// Every malformed-request path answers 400: oversized bodies
	// (surfaced by MaxBytesReader through Decode), invalid JSON, unknown
	// fields, trailing garbage (all via decodeBody), and a missing SQL
	// statement.
	var req queryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.SQL == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing \"sql\" field"})
		return
	}
	timeout, ok := requestTimeout(w, req.TimeoutMS)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// HTTP clients get anytime semantics: a timeout that lands after the
	// first sample returns the truncated estimate flagged partial. A
	// negative sample budget reaches the engine, which rejects it as
	// ErrBadQuery (400).
	opts := []QueryOption{AllowPartial(), TraceID(db.traceContext(w, r))}
	if req.Samples != 0 {
		opts = append(opts, Samples(req.Samples))
	}
	if req.Confidence != 0 {
		opts = append(opts, Confidence(req.Confidence))
	}
	if req.NoCache {
		opts = append(opts, NoCache())
	}
	if req.Trace {
		opts = append(opts, Trace())
	}
	rows, err := db.query(ctx, req.SQL, bindableArgs(req.Args), opts)
	if err != nil {
		writeJSON(w, statusFor(err), errorResponse{Error: err.Error()})
		return
	}
	writeAnswer(w, req.SQL, rows.res)
}

// writeAnswer writes the POST /query response for res. The answer's
// members are encoded once per evaluation (encodeAnswer, memoized on the
// shared answer), so a cache hit writes the request's own "sql", "cached"
// and trace around bytes already made — straight to w, with no body
// buffer of its own.
func writeAnswer(w http.ResponseWriter, sql string, res *serve.Result) {
	shared := res.Encoded(encodeAnswer)
	if shared == nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "answer is not representable in JSON"})
		return
	}
	// "cached" goes before "elapsed_ms", the last shared member — and the
	// last comma, since a JSON number holds none.
	split := bytes.LastIndexByte(shared, ',')
	cached := `,"cached":false`
	if res.Cached {
		cached = `,"cached":true`
	}
	var trace []byte
	if res.Trace != nil {
		trace, _ = json.Marshal(res.Trace) // plain data: strings, numbers, nested spans
		trace = append([]byte(`,"trace":`), trace...)
	}
	quoted, _ := json.Marshal(sql) // a string always encodes
	n := len(`{"sql":`) + len(quoted) + len(shared) + len(cached) + len(trace) + len("}\n")
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, `{"sql":`)
	w.Write(quoted)
	w.Write(shared[:split])
	io.WriteString(w, cached)
	w.Write(shared[split:])
	w.Write(trace)
	io.WriteString(w, "}\n")
}

// encodeAnswer renders res's shared members as they follow "sql" in the
// response object: `,"columns":…,"elapsed_ms":…` — a leading comma and no
// braces. It returns nil if the answer holds a number JSON cannot carry.
func encodeAnswer(res *serve.Result) []byte {
	a := answerJSON{
		Columns:    res.Columns(),
		Tuples:     make([]tupleJSON, res.Len()),
		Samples:    res.Samples,
		Chains:     res.Chains,
		Epoch:      res.Epoch,
		Confidence: res.Confidence,
		Partial:    res.Partial,
		EarlyStop:  res.EarlyStop,
		ElapsedMS:  float64(res.Elapsed.Microseconds()) / 1000,
	}
	for i := range a.Tuples {
		vals := make([]string, res.Width(i))
		for j := range vals {
			vals[j] = res.Value(i, j).String()
		}
		lo, hi := res.CI(i)
		a.Tuples[i] = tupleJSON{Values: vals, P: res.Prob(i), Lo: lo, Hi: hi}
	}
	b, err := json.Marshal(a)
	if err != nil {
		return nil
	}
	b[0] = ','
	return b[:len(b)-1]
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrBadQuery):
		return http.StatusBadRequest
	case errors.Is(err, ErrReadOnly):
		return http.StatusNotImplemented
	case errors.Is(err, ErrOverloaded):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func (db *DB) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	code := http.StatusOK
	if db.eng.Closed() {
		status = "closed"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, healthResponse{
		Status:         status,
		Mode:           db.Mode().String(),
		Chains:         db.Chains(),
		Epoch:          db.eng.Epoch(),
		WriteEpoch:     db.WriteEpoch(),
		UptimeS:        time.Since(db.start).Seconds(),
		AcceptanceRate: db.eng.AcceptanceRate(),
		SharedViews:    db.eng.SharedViews(),
		Durability:     db.Durability(),
	})
}

func (db *DB) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, db.Status())
}

func (db *DB) handleTraces(w http.ResponseWriter, _ *http.Request) {
	traces := db.RecentTraces()
	if traces == nil {
		traces = []*QueryTrace{}
	}
	writeJSON(w, http.StatusOK, traces)
}

func (db *DB) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	db.Metrics().WriteText(w)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
