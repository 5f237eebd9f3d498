package factordb

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"
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

// queryResponse is the POST /query answer.
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
// headers — wrong field count, wrong width, non-hex, all-zero — return
// "" and the request proceeds untraced rather than failing.
func parseTraceparent(h string) string {
	parts := strings.Split(h, "-")
	if len(parts) < 4 || len(parts[0]) != 2 || len(parts[1]) != 32 || len(parts[2]) != 16 {
		return ""
	}
	id := strings.ToLower(parts[1])
	zero := true
	for i := 0; i < len(id); i++ {
		c := id[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return ""
		}
		if c != '0' {
			zero = false
		}
	}
	if zero {
		return ""
	}
	return id
}

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

// requestTimeout clamps the client's timeout request onto [default, max].
func requestTimeout(ms int) time.Duration {
	timeout := DefaultQueryTimeout
	if ms > 0 {
		timeout = time.Duration(ms) * time.Millisecond
		if timeout > MaxQueryTimeout {
			timeout = MaxQueryTimeout
		}
	}
	return timeout
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
	ctx, cancel := context.WithTimeout(r.Context(), requestTimeout(req.TimeoutMS))
	defer cancel()
	opts := []ExecOption{ExecTraceID(db.traceContext(w, r))}
	if req.Trace {
		opts = append(opts, ExecTrace())
	}
	res, err := db.execArgs(ctx, req.SQL, bindableArgs(req.Args), opts...)
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
	ctx, cancel := context.WithTimeout(r.Context(), requestTimeout(req.TimeoutMS))
	defer cancel()

	// HTTP clients get anytime semantics: a timeout that lands after the
	// first sample returns the truncated estimate flagged partial.
	opts := []QueryOption{AllowPartial(), TraceID(db.traceContext(w, r))}
	if req.Samples > 0 {
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
	rows, err := db.queryArgs(ctx, req.SQL, bindableArgs(req.Args), opts...)
	if err != nil {
		writeJSON(w, statusFor(err), errorResponse{Error: err.Error()})
		return
	}
	defer rows.Close()
	resp := queryResponse{
		SQL:        req.SQL,
		Columns:    rows.Columns(),
		Tuples:     make([]tupleJSON, 0, rows.Len()),
		Samples:    rows.Samples(),
		Chains:     rows.Chains(),
		Epoch:      rows.epoch,
		Confidence: rows.Confidence(),
		Partial:    rows.Partial(),
		EarlyStop:  rows.EarlyStopped(),
		Cached:     rows.Cached(),
		ElapsedMS:  float64(rows.Elapsed().Microseconds()) / 1000,
		Trace:      rows.Trace(),
	}
	for rows.Next() {
		tp := rows.cis[rows.i]
		vals := make([]string, len(tp.Tuple))
		for i, v := range tp.Tuple {
			vals[i] = v.String()
		}
		resp.Tuples = append(resp.Tuples, tupleJSON{Values: vals, P: tp.P, Lo: tp.Lo, Hi: tp.Hi})
	}
	writeJSON(w, http.StatusOK, resp)
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
		Mode:           db.opts.mode.String(),
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
