package factordb

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"factordb/internal/serve"
)

// ErrReadOnly is returned by Exec when the opened workload cannot absorb
// writes under the current mode. The local modes (naive, materialized)
// need a durable prototype world to mutate; a workload that materializes
// worlds per query — coref — only supports writes in served mode, where
// the chain worlds live for the engine's lifetime.
var ErrReadOnly = errors.New("factordb: workload is read-only under this mode")

// ExecResult reports one committed DML mutation.
type ExecResult struct {
	// RowsAffected counts the rows the mutation touched (rows inserted,
	// matched by UPDATE, or deleted).
	RowsAffected int64
	// Epoch is the data epoch after the commit: the number of writes the
	// database has absorbed. Every committed write bumps it, and the
	// served-mode result cache keys on it, so no answer cached before
	// this write can be served after it.
	Epoch int64
	// Chains is the number of possible-world copies the mutation was
	// applied to (the pool size in served mode, 1 otherwise).
	Chains int
	// Elapsed is the wall time to commit, including the post-write
	// burn-in on every chain in served mode.
	Elapsed time.Duration
	// Trace is the write's span breakdown — compile, resolve, WAL
	// append/fsync, chain fan-out phases — present only when the caller
	// opted in with ExecTrace (or, in served mode, the engine's trace
	// sampler picked the write).
	Trace *QueryTrace
}

// execOptions tunes one Exec; see the ExecOption constructors.
type execOptions struct {
	trace   bool
	traceID string
}

// ExecOption configures one DB.Exec call.
type ExecOption func(*execOptions)

// ExecTrace records a span breakdown of this write — compile, admission,
// resolve, WAL append and fsync, per-phase chain fan-out — returned in
// ExecResult.Trace and kept in the recent-traces ring behind
// GET /debug/traces.
func ExecTrace() ExecOption { return func(o *execOptions) { o.trace = true } }

// ExecTraceID propagates a caller-assigned correlation ID (the trace-id
// field of a W3C traceparent) into the write's trace and its write-audit
// record. The HTTP transport sets it from the request's traceparent
// header.
func ExecTraceID(id string) ExecOption { return func(o *execOptions) { o.traceID = id } }

// Exec applies one DML statement — INSERT, UPDATE or DELETE — to the
// probabilistic database and returns once every possible-world copy has
// absorbed it. This is the paper's update model: the database is a single
// possible world plus a factor graph, so a write mutates the world in
// place and sampling simply continues — the marginals re-equilibrate with
// no lineage recomputation and no reopening.
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
// every subsequent query clones the mutated world. Statements' WHERE
// clauses may reference any column, but the durable write workload is
// evidence: a hidden (sampled) column assignment is overwritten as the
// sampler revisits it.
func (db *DB) Exec(ctx context.Context, sql string, opts ...ExecOption) (*ExecResult, error) {
	if db.eng.Closed() {
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := db.eng.ExecTraced(ctx, sql, execOpts(opts).engine())
	return newExecResult(res, err)
}

func execOpts(opts []ExecOption) (eo execOptions) {
	for _, f := range opts {
		f(&eo)
	}
	return eo
}

func (eo execOptions) engine() serve.ExecOptions {
	return serve.ExecOptions{Trace: eo.trace, TraceID: eo.traceID}
}

func newExecResult(res *serve.ExecResult, err error) (*ExecResult, error) {
	if err != nil {
		return nil, mapServeErr(err)
	}
	return &ExecResult{
		RowsAffected: res.RowsAffected,
		Epoch:        res.Epoch,
		Chains:       res.Chains,
		Elapsed:      res.Elapsed,
		Trace:        res.Trace,
	}, nil
}

// mapServeErr rebrands the serving engine's sentinel errors onto the
// facade's error taxonomy, keeping the underlying compile/bind detail
// intact. Shared by the read (Query) and write (Exec) paths so the two
// can never drift apart.
func mapServeErr(err error) error {
	switch {
	case errors.Is(err, serve.ErrClosed):
		return ErrClosed
	case errors.Is(err, serve.ErrBadQuery):
		detail := strings.TrimPrefix(err.Error(), serve.ErrBadQuery.Error()+": ")
		return fmt.Errorf("%w: %s", ErrBadQuery, detail)
	case errors.Is(err, serve.ErrOverloaded):
		return ErrOverloaded
	case errors.Is(err, serve.ErrReadOnly):
		return fmt.Errorf("%w: no durable local world (open it with WithMode(ModeServed))", ErrReadOnly)
	case errors.Is(err, serve.ErrWAL):
		return fmt.Errorf("%w: %v", ErrRecovery, err)
	}
	return err
}

// WriteEpoch returns the data epoch: the number of writes committed since
// Open (or recovered by it), shared by all transports.
func (db *DB) WriteEpoch() int64 { return db.eng.DataEpoch() }
