package factordb

import (
	"context"

	"factordb/internal/serve"
)

// ExecResult reports one committed DML mutation: rows affected, the data
// epoch after the commit, the world copies it landed on, the commit time
// and, when opted in, the write's trace.
type ExecResult = serve.ExecResult

// execOptions tunes one Exec; see the ExecOption constructors.
type execOptions = serve.ExecOptions

// ExecOption configures one DB.Exec call.
type ExecOption func(*execOptions)

// ExecTrace records a span breakdown of this write — compile, admission,
// resolve, WAL append and fsync, per-phase chain fan-out — returned in
// ExecResult.Trace and kept in the recent-traces ring behind
// GET /debug/traces.
func ExecTrace() ExecOption { return func(o *execOptions) { o.Trace = true } }

// ExecTraceID propagates a caller-assigned correlation ID (the trace-id
// field of a W3C traceparent) into the write's trace and its write-audit
// record. The HTTP transport sets it from the request's traceparent
// header.
func ExecTraceID(id string) ExecOption { return func(o *execOptions) { o.TraceID = id } }

// Exec applies one DML statement — INSERT, UPDATE or DELETE — to the
// probabilistic database and returns once every possible-world copy has
// absorbed it. This is the paper's update model: the database is a single
// possible world plus a factor graph, so a write mutates the world in
// place and sampling simply continues, with no lineage recomputation and
// no reopening. The write changes the evidence it touches and every
// answer that selects on it; the factor graph does not see it yet, so
// hidden-variable marginals do not respond to it.
//
//	UPDATE TOKEN SET STRING = 'Boston' WHERE TOK_ID = 4711
//	DELETE FROM TOKEN WHERE DOC_ID = 17
//	INSERT INTO TOKEN (TOK_ID, DOC_ID, STRING, LABEL, TRUTH) VALUES (...)
//
// In served mode the mutation is resolved once, applied to every chain's
// world at an epoch boundary, followed by a burn-in walk so snapshots are
// trusted again; in-flight queries restart their estimators and complete
// with post-write samples only, and all cached pre-write answers become
// unreachable (the data epoch is part of every cache key). Queries issued
// after Exec returns never observe pre-write state.
//
// In the local modes the prototype world is mutated under a write lock;
// every subsequent query clones the mutated world. A write targets
// evidence only: an UPDATE that sets a hidden (sampled) column, or an
// UPDATE or DELETE whose WHERE reads one, fails with ErrBadQuery naming
// the column, before anything is logged or applied. The sampler, not
// the store, holds a hidden variable's state, and a predicate over one
// would match rows by the walk. An INSERT's value for a hidden column is
// accepted as the new row's initial state.
func (db *DB) Exec(ctx context.Context, sql string, opts ...ExecOption) (*ExecResult, error) {
	return db.exec(ctx, sql, nil, opts)
}

// exec is Exec with the values of the statement's ? placeholders — the
// one write path of DB.Exec, Stmt.Exec, database/sql and HTTP.
func (db *DB) exec(ctx context.Context, sql string, args []any, opts []ExecOption) (*ExecResult, error) {
	if db.eng.Closed() {
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	eo := execOptions{Args: args}
	for _, f := range opts {
		f(&eo)
	}
	return db.eng.Exec(ctx, sql, eo)
}

// WriteEpoch returns the data epoch: the number of writes committed since
// Open (or recovered by it), shared by all transports.
func (db *DB) WriteEpoch() int64 { return db.eng.DataEpoch() }
