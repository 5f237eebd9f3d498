package factordb

import (
	"context"

	"factordb/internal/serve"
)

// queryOptions tunes one query evaluation: the engine's per-query
// options plus the facade's partial-result choice. Zero values inherit
// the DB defaults set at Open.
type queryOptions struct {
	serve.QueryOptions
	allowPartial bool
}

// QueryOption configures one DB.Query call.
type QueryOption func(*queryOptions)

// Samples overrides the sample budget for this query; 0 keeps the DB
// default and a negative budget fails with ErrBadQuery. More samples
// tighten the confidence intervals at the cost of latency.
func Samples(n int) QueryOption { return func(o *queryOptions) { o.Samples = n } }

// Confidence overrides the two-sided confidence-interval mass in (0,1)
// for this query.
func Confidence(c float64) QueryOption { return func(o *queryOptions) { o.Confidence = c } }

// NoCache bypasses the served-mode result cache for this query. The
// cache is keyed by the statement's bound fingerprint, output names and
// query options, not the SQL text: spelling variants of one query share
// an entry, while different budgets or confidence levels do not.
func NoCache() QueryOption { return func(o *queryOptions) { o.NoCache = true } }

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
func Trace() QueryOption { return func(o *queryOptions) { o.Trace = true } }

// TraceID propagates a caller-assigned correlation ID — the trace-id
// field of a W3C traceparent — into whatever observability this query
// produces: its trace (if recorded) and any slow-query record. It does
// not by itself enable tracing; combine with Trace for that. The HTTP
// transport sets it from the request's traceparent header.
func TraceID(id string) QueryOption { return func(o *queryOptions) { o.TraceID = id } }

// Query evaluates one SQL SELECT over the possible-world distribution and
// returns a streaming iterator over the answer tuples, each carrying its
// estimated marginal probability and confidence interval, sorted by
// descending probability. The evaluation strategy is the one the DB was
// opened with: naive and materialized evaluate on a private chain in the
// calling goroutine; served registers the query on the shared chain pool.
func (db *DB) Query(ctx context.Context, sql string, opts ...QueryOption) (*Rows, error) {
	return db.query(ctx, sql, nil, opts)
}

// query is Query with the values of the statement's ? placeholders — the
// one path of DB.Query, Stmt.Query, database/sql and HTTP. The SQL and
// the arguments go straight to the engine, which compiles through the
// plan cache (EXPLAIN included) and returns the output column names with
// the result — the facade compiles nothing. Statements bind to one
// canonical tree (ra.Prepare), and the engine keys both its result cache
// and its per-chain shared views by its bound fingerprint, not SQL text —
// so however a query reaches the engine and however it is spelled, with
// literals or bound placeholders, equal queries share cache entries and
// materialized views.
func (db *DB) query(ctx context.Context, sql string, args []any, opts []QueryOption) (*Rows, error) {
	if db.eng.Closed() {
		return nil, ErrClosed
	}
	qo := db.queryOpts(opts)
	qo.Args = args
	res, err := db.eng.Query(ctx, sql, qo.QueryOptions)
	return newRows(ctx, res, err, qo)
}

// queryOpts folds the per-call options over the DB default confidence;
// the engine applies every other default and validates the result.
func (db *DB) queryOpts(opts []QueryOption) queryOptions {
	qo := queryOptions{QueryOptions: serve.QueryOptions{Confidence: db.opts.confidence}}
	for _, f := range opts {
		f(&qo)
	}
	return qo
}

// newRows applies the facade's partial-result semantics to an engine
// answer and wraps it for iteration. Ranked clauses (ORDER BY / LIMIT /
// the P pseudo-column) were applied by the engine when it merged the
// estimate, so Rows preserves its order as-is.
func newRows(ctx context.Context, res *serve.Result, err error, qo queryOptions) (*Rows, error) {
	if err != nil {
		return nil, err
	}
	if res.Partial && !qo.allowPartial {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		// Partial without a dead context means the engine closed under us.
		return nil, ErrClosed
	}
	return &Rows{res: res, i: -1}, nil
}
