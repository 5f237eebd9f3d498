package factordb

import (
	"context"
	"fmt"

	"factordb/internal/serve"
	"factordb/internal/sqlparse"
)

// queryOptions tunes one query evaluation; zero values inherit the DB
// defaults set at Open.
type queryOptions struct {
	samples      int
	confidence   float64
	noCache      bool
	allowPartial bool
	trace        bool
	traceID      string
}

// QueryOption configures one DB.Query call.
type QueryOption func(*queryOptions)

// Samples overrides the sample budget for this query. More samples
// tighten the confidence intervals at the cost of latency.
func Samples(n int) QueryOption { return func(o *queryOptions) { o.samples = n } }

// Confidence overrides the two-sided confidence-interval mass in (0,1)
// for this query.
func Confidence(c float64) QueryOption { return func(o *queryOptions) { o.confidence = c } }

// NoCache bypasses the served-mode result cache for this query. The
// cache is keyed by the canonical plan's fingerprint plus the query
// options, not the SQL text: spelling variants of one query share an
// entry, while different budgets or confidence levels do not.
func NoCache() QueryOption { return func(o *queryOptions) { o.noCache = true } }

// AllowPartial opts into anytime semantics: if the context expires (or
// the DB closes) after at least one sample was collected, Query returns
// the truncated estimate with Rows.Partial set instead of an error. MCMC
// estimates are anytime — a truncated answer with wide intervals can beat
// a timeout. Without this option, interrupted queries return the context
// error (or ErrClosed), matching database/sql expectations.
func AllowPartial() QueryOption { return func(o *queryOptions) { o.allowPartial = true } }

// Trace records a span breakdown of this query's evaluation — where the
// time went, step by step — readable afterwards through Rows.Trace (and
// kept in the recent-traces ring behind GET /debug/traces). Tracing is
// off by default and the disabled path is one branch per span site, so
// leaving it off costs nothing measurable.
func Trace() QueryOption { return func(o *queryOptions) { o.trace = true } }

// TraceID propagates a caller-assigned correlation ID — the trace-id
// field of a W3C traceparent — into whatever observability this query
// produces: its trace (if recorded) and any slow-query record. It does
// not by itself enable tracing; combine with Trace for that. The HTTP
// transport sets it from the request's traceparent header.
func TraceID(id string) QueryOption { return func(o *queryOptions) { o.traceID = id } }

// Query evaluates one SQL SELECT over the possible-world distribution and
// returns a streaming iterator over the answer tuples, each carrying its
// estimated marginal probability and confidence interval, sorted by
// descending probability. The evaluation strategy is the one the DB was
// opened with: naive and materialized evaluate on a private chain in the
// calling goroutine; served registers the query on the shared chain pool.
func (db *DB) Query(ctx context.Context, sql string, opts ...QueryOption) (*Rows, error) {
	if db.eng.Closed() {
		return nil, ErrClosed
	}
	qo, err := db.queryOpts(opts)
	if err != nil {
		return nil, err
	}
	// EXPLAIN is answered by the facade itself: it compiles (and caches)
	// the target statement but never samples.
	if sqlparse.IsExplain(sql) {
		return db.explain(ctx, sql)
	}
	// The SQL goes straight to the engine, which compiles through the
	// shared plan cache and returns the output column names with the
	// result — the facade compiles nothing. The planner emits canonical
	// plans (ra.Canonicalize), and the engine keys both its result cache
	// and its per-chain shared views by plan fingerprint rather than SQL
	// text — so however a query reaches the engine (this facade, the
	// database/sql driver, or HTTP) and however it is spelled, equal
	// queries share cache entries and materialized views.
	res, err := db.eng.Query(ctx, sql, qo.engine())
	return newRows(ctx, res, err, qo)
}

// queryOpts folds the per-call options over the DB defaults set at Open.
func (db *DB) queryOpts(opts []QueryOption) (queryOptions, error) {
	qo := queryOptions{samples: db.opts.samples, confidence: db.opts.confidence}
	for _, f := range opts {
		f(&qo)
	}
	if qo.samples <= 0 {
		qo.samples = db.opts.samples
	}
	if qo.confidence <= 0 || qo.confidence >= 1 {
		return qo, fmt.Errorf("%w: confidence %v outside (0,1)", ErrBadQuery, qo.confidence)
	}
	return qo, nil
}

func (qo queryOptions) engine() serve.QueryOptions {
	return serve.QueryOptions{
		Samples:    qo.samples,
		Confidence: qo.confidence,
		NoCache:    qo.noCache,
		Trace:      qo.trace,
		TraceID:    qo.traceID,
	}
}

// newRows maps an engine answer — its errors and its partial-result
// semantics — onto the facade contract. Ranked clauses (ORDER BY / LIMIT
// / the P pseudo-column) were applied by the engine when it merged the
// estimate, so Rows preserves its order as-is.
func newRows(ctx context.Context, res *serve.Result, err error, qo queryOptions) (*Rows, error) {
	if err != nil {
		return nil, mapServeErr(err)
	}
	if res.Partial && !qo.allowPartial {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		// Partial without a dead context means the engine closed under us.
		return nil, ErrClosed
	}
	return &Rows{
		// Copy the cached column slice: Rows hands it to callers, who may
		// append presentation columns.
		cols:       append([]string(nil), res.Columns...),
		cis:        res.TupleCIs(),
		i:          -1,
		samples:    res.Samples,
		chains:     res.Chains,
		epoch:      res.Epoch,
		confidence: res.Confidence,
		partial:    res.Partial,
		earlyStop:  res.EarlyStop,
		cached:     res.Cached,
		elapsed:    res.Elapsed,
		trace:      res.Trace,
	}, nil
}
