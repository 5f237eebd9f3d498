package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"

	"factordb"
)

// hotWorkload serves a working set that fits the result cache, over a
// real socket: after the fill no walk-step runs, and an op costs the
// plan-cache probe, the result-cache hit, JSON and net/http.
type hotWorkload struct {
	*served
	gen    *generator
	srv    *httptest.Server
	client *http.Client
	reqs   map[hotKey]*hotReq
	buf    bytes.Buffer
}

type hotKey struct {
	query, samples int
	param          bool
}

// hotReq is one distinct request: its encoded body, the same body asking
// for a trace, and the response the server must give to the first.
type hotReq struct {
	body, tracedBody []byte
	want             []byte
}

// wireQuery mirrors the POST /query request body.
type wireQuery struct {
	SQL     string `json:"sql"`
	Args    []any  `json:"args,omitempty"`
	Samples int    `json:"samples"`
	Trace   bool   `json:"trace,omitempty"`
}

// wireAnswer is the part of the POST /query response the checks read.
type wireAnswer struct {
	Tuples []struct {
		Values []string `json:"values"`
		P      float64  `json:"p"`
	} `json:"tuples"`
	Samples int64                `json:"samples"`
	Partial bool                 `json:"partial"`
	Cached  bool                 `json:"cached"`
	Trace   *factordb.QueryTrace `json:"trace"`
}

func setupHot(cfg *runConfig, g *generator) (*hotWorkload, error) {
	s, err := openServed(cfg)
	if err != nil {
		return nil, err
	}
	w := &hotWorkload{served: s, gen: g, reqs: map[hotKey]*hotReq{}}
	w.serve()
	return w, nil
}

// serve puts the database behind a socket, with one keep-alive
// connection to it: the closed loop has one client.
func (w *hotWorkload) serve() {
	w.srv = httptest.NewServer(w.db.Handler())
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
}

func (w *hotWorkload) hangUp() {
	w.srv.Close()
	w.client.CloseIdleConnections()
}

// prepare fills the result cache: warm-up, not set-up, so it runs once.
func (w *hotWorkload) prepare() error { return w.fill(w.gen.entries) }

func (w *hotWorkload) post(body []byte) (int, error) {
	req, err := http.NewRequest(http.MethodPost, w.srv.URL+"/query", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	w.buf.Reset()
	_, err = w.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// fill evaluates every entry once so the cache holds the whole working
// set, then records the response each distinct request must keep
// getting, checked against the in-process answer. Entries are evaluated
// one after another: the chains walk a seeded path and take a fixed
// number of steps per answer, so every run caches the same answers —
// evaluated side by side they would depend on which epoch each happened
// to register at, and response sizes (hence alloc_kb_per_op) would move
// by several percent from run to run.
func (w *hotWorkload) fill(entries []hotEntry) error {
	ctx := context.Background()
	for _, e := range entries {
		rows, err := w.db.Query(ctx, servedQueries[e.Query], factordb.Samples(e.Samples))
		if err != nil {
			return fmt.Errorf("fill %d/%d: %w", e.Query, e.Samples, err)
		}
		rows.Close()
	}
	for _, e := range entries {
		rows, err := w.db.Query(ctx, servedQueries[e.Query], factordb.Samples(e.Samples))
		if err != nil {
			return err
		}
		if !rows.Cached() {
			return fmt.Errorf("entry %d/%d is not cached after the fill", e.Query, e.Samples)
		}
		for _, param := range []bool{false, true} {
			q := wireQuery{SQL: servedQueries[e.Query], Samples: e.Samples}
			if param {
				q.SQL, q.Args = e.ParamSQL, e.Args
			}
			r := &hotReq{}
			if r.body, err = json.Marshal(q); err != nil {
				return err
			}
			q.Trace = true
			if r.tracedBody, err = json.Marshal(q); err != nil {
				return err
			}
			status, err := w.post(r.body)
			if err != nil {
				return err
			}
			if status != http.StatusOK {
				return fmt.Errorf("%s: HTTP %d: %s", r.body, status, w.buf.Bytes())
			}
			r.want = append([]byte(nil), w.buf.Bytes()...)
			if err := sameAnswer(r.want, rows); err != nil {
				return fmt.Errorf("%s: %w", r.body, err)
			}
			w.reqs[hotKey{e.Query, e.Samples, param}] = r
		}
		rows.Close()
	}
	return nil
}

// sameAnswer checks an HTTP response body against the in-process answer
// to the same query: cached, complete, same tuples at the same marginals.
func sameAnswer(body []byte, rows *factordb.Rows) error {
	var a wireAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return err
	}
	if !a.Cached || a.Partial || a.Samples != rows.Samples() || len(a.Tuples) != rows.Len() {
		return fmt.Errorf("response (cached=%v partial=%v samples=%d tuples=%d) differs from the in-process answer (samples=%d tuples=%d)",
			a.Cached, a.Partial, a.Samples, len(a.Tuples), rows.Samples(), rows.Len())
	}
	for i := 0; rows.Next(); i++ {
		vals, err := rows.Row()
		if err != nil {
			return err
		}
		t := a.Tuples[i]
		if t.P != rows.Prob() || len(t.Values) != len(vals) {
			return fmt.Errorf("tuple %d: %v at P=%v over HTTP, P=%v in process", i, t.Values, t.P, rows.Prob())
		}
		for j, v := range vals {
			if fmt.Sprint(v) != t.Values[j] {
				return fmt.Errorf("tuple %d column %d: %q over HTTP, %v in process", i, j, t.Values[j], v)
			}
		}
	}
	return nil
}

func (w *hotWorkload) do(o *op, x *opCtx) opResult {
	r := w.reqs[hotKey{o.Query, o.Samples, len(o.Args) > 0}]
	if r == nil {
		return opResult{Why: "request outside the filled working set"}
	}
	if x.tr != nil {
		return w.doTraced(r, x)
	}
	status, err := w.post(r.body)
	if err != nil || status != http.StatusOK {
		return opResult{Why: fmt.Sprintf("HTTP %d: %v", status, err)}
	}
	// A cache hit's body is byte-stable (it reports the original
	// evaluation's samples, epoch and elapsed time), so equality with the
	// verified body proves 200, cached and the right answer at once.
	if !bytes.Equal(w.buf.Bytes(), r.want) {
		w.wrong = append(w.wrong, fmt.Sprintf("%s: response differs from the verified answer", r.body))
		return opResult{OK: true}
	}
	return opResult{OK: true, Cached: true}
}

// doTraced asks the server for its span breakdown, so the body carries a
// trace and is decoded instead of compared.
func (w *hotWorkload) doTraced(r *hotReq, x *opCtx) opResult {
	rt := x.tr.begin("http.roundtrip", x.span, x.id)
	status, err := w.post(r.tracedBody)
	x.tr.end(rt)
	if err != nil || status != http.StatusOK {
		return opResult{Why: fmt.Sprintf("HTTP %d: %v", status, err)}
	}
	dec := x.tr.begin("client.decode", x.span, x.id)
	var a wireAnswer
	err = json.Unmarshal(w.buf.Bytes(), &a)
	x.tr.end(dec)
	if err != nil {
		return opResult{Why: err.Error()}
	}
	return opResult{OK: !a.Partial, Why: "partial answer", Cached: a.Cached, Trace: a.Trace}
}

// check holds the workload to its purpose: once the cache is full no
// chain walks, and at least 99 % of measured reads are hits.
func (w *hotWorkload) check(sum runSummary) error {
	if sum.MeasuredSteps != 0 {
		return fmt.Errorf("%v walk-steps per chain ran during measured rounds, want 0", sum.MeasuredSteps)
	}
	if sum.Reads > 0 && float64(sum.CachedReads) < 0.99*float64(sum.Reads) {
		return fmt.Errorf("%d of %d measured reads were cache hits, want at least 99%%", sum.CachedReads, sum.Reads)
	}
	return nil
}

func (w *hotWorkload) close() error {
	w.hangUp()
	return w.db.Close()
}
