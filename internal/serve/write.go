package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"factordb/internal/ra"
	"factordb/internal/sqlparse"
	"factordb/internal/world"
)

// ExecResult reports one committed DML mutation.
type ExecResult struct {
	// SQL is the statement as the caller issued it.
	SQL string
	// RowsAffected counts the rows the mutation touched (rows inserted,
	// matched by UPDATE, or deleted).
	RowsAffected int64
	// Epoch is the data epoch after the commit: the number of writes the
	// database has absorbed. Every committed write bumps it, and the
	// result cache keys on it, so no answer cached before this write can
	// be served after it.
	Epoch int64
	// Chains is the engine's chain count: the pool size in served mode,
	// whose every chain took the mutation after the prototype did, and 1
	// otherwise.
	Chains int
	// Elapsed is the wall time to commit, including the post-write
	// burn-in on every chain in served mode.
	Elapsed time.Duration
	// Trace is the write's span breakdown — compile, resolve, WAL
	// append/fsync, chain fan-out phases — present only when the caller
	// opted in (ExecOptions.Trace) or the engine's trace sampler picked
	// the write. Spans follow the write-span contract in doc.go.
	Trace *QueryTrace
}

// ExecOptions tunes one mutation execution.
type ExecOptions struct {
	// Trace records a span breakdown of the write — compile, admission,
	// resolve, WAL append/fsync, chain fan-out phases — returned in
	// ExecResult.Trace and kept in the engine's debug ring.
	Trace bool
	// TraceID propagates a caller-assigned correlation ID (the trace-id
	// field of a W3C traceparent) into the trace and the write-audit log.
	// Empty means the engine assigns one when a trace is recorded.
	TraceID string
	// Args are the values of the statement's ? placeholders, as in
	// QueryOptions.Args.
	Args []any
}

// FsyncReporter is optionally implemented by WAL sinks that can say how
// much of their last Append was spent in fsync; traced writes use it to
// carve the fsync span out of wal_append. The report is only meaningful
// immediately after an Append on the same goroutine, which the engine's
// write lock guarantees.
type FsyncReporter interface {
	LastFsyncNS() int64
}

// Exec compiles one DML statement (INSERT, UPDATE or DELETE), applies it
// to the prototype world and every chain's world, and blocks until all
// chains have absorbed it. This is the paper's data-update model made
// operational: the database is one possible world plus a factor graph,
// so a write mutates the world in place and the chains keep sampling,
// with no lineage recomputation and no engine restart. The factor graph
// does not see the write yet, so it moves answers that select on the
// written evidence, not the hidden variables' marginals.
//
// The prototype is the engine's one evidence world, in every mode. Under
// the write lock the mutation is resolved on it into concrete row-level
// ops (predicates evaluated, row identities fixed), appended to the WAL,
// and applied to it; then the identical op list is fanned out to every
// chain — chain worlds are clones of the prototype that took the same op
// stream, so they share its row identities and never diverge on
// evidence. Each chain applies the ops at an epoch boundary, walks
// StepsPerSample steps to re-equilibrate, folds the combined delta into
// its live views once, and resets their estimators: queries in flight
// across the write complete with post-write samples only, and queries
// issued after Exec returns never observe pre-write state. Committing
// bumps the data epoch, which is part of every result-cache key, so all
// cached pre-write answers become unreachable. (Under a private-chain
// mode there are no chains to fan out to: every later query clones the
// written prototype.)
//
// Writes pass the same admission control as queries and are serialized
// with each other. ctx is honored until the write is admitted: from then
// on Exec completes (or the engine closes) regardless of cancellation,
// because a half-applied write would fork the worlds.
// opts carries the per-write tracing choices and the values of the
// statement's ? placeholders.
func (e *Engine) Exec(ctx context.Context, sql string, opts ExecOptions) (*ExecResult, error) {
	if e.Closed() {
		return nil, ErrClosed
	}
	begin := time.Now()
	comp, cached, err := e.plans.Lookup(sql, sqlparse.UseExec)
	if err == nil {
		comp, err = comp.Bind(opts.Args)
	}
	tr := e.startTrace("exec", sql, opts.Trace, opts.TraceID, begin)
	if err != nil {
		e.m.failed.Inc()
		e.finishExec(ctx, sql, nil, "error", tr, begin)
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	e.notePlanCache(tr, cached)
	return e.execMutation(ctx, sql, comp.Mutation, tr, begin)
}

// finishExec settles one exec attempt's observability: the trace (closed,
// slow-logged and ringed by finishTrace, attached to the result when
// published), the outcome-labeled latency histogram, and the write-audit
// record.
func (e *Engine) finishExec(ctx context.Context, sql string, res *ExecResult, outcome string, tr *qtrace, begin time.Time) {
	if qt := e.finishTrace(tr, outcome); res != nil {
		res.Trace = qt
	}
	e.m.execLatency.With(outcome).Observe(time.Since(begin).Seconds())
	e.auditWrite(ctx, sql, res, outcome, tr)
}

// execMutation is Exec's write core: admission, resolution on the
// prototype, WAL append, the strategy's apply, epoch bump. A traced
// write spans each stage contiguously — compile / admission_wait /
// resolve / wal_append / fsync / the apply spans / cache_invalidate.
func (e *Engine) execMutation(ctx context.Context, sql string, mut ra.Mutation, tr *qtrace, begin time.Time) (res *ExecResult, err error) {
	outcome := "error"
	defer func() { e.finishExec(ctx, sql, res, outcome, tr, begin) }()

	if err := ctx.Err(); err != nil {
		outcome = "canceled"
		return nil, err
	}
	tr.span("admission_wait")
	if err := e.admit.acquire(ctx); err != nil {
		if errors.Is(err, ErrOverloaded) {
			e.m.rejected.Inc()
			outcome = "rejected"
		} else {
			outcome = "canceled"
		}
		return nil, err
	}
	defer e.admit.release()

	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	start := time.Now()

	tr.span("resolve")
	ops, err := world.ResolveMutation(e.src.WorldDB(), mut)
	if err != nil {
		e.m.failed.Inc()
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}

	// A mutation matching no rows leaves every world untouched: commit
	// nothing, and in particular do not bump the data epoch — that would
	// orphan every cached answer for no reason.
	if len(ops) == 0 {
		outcome = "noop"
		res = &ExecResult{
			SQL:     sql,
			Epoch:   e.dataEpoch.Load(),
			Chains:  e.cfg.Chains,
			Elapsed: time.Since(start),
		}
		return res, nil
	}

	// Write-ahead: the batch goes to the durable log before any world
	// takes it. An Append error vetoes the write with every world still
	// untouched. The converse failure — Append succeeded but the fan-out
	// below aborted on shutdown — leaves a record that recovery will
	// replay, which is the standard WAL commit rule: durable means
	// committed.
	epoch := e.dataEpoch.Load() + 1
	if e.cfg.WAL != nil {
		tr.span("wal_append")
		if err := e.cfg.WAL.Append(epoch, ops); err != nil {
			return nil, fmt.Errorf("%w: wal append: %v", ErrWAL, err)
		}
		var fsyncNS int64
		if fr, ok := e.cfg.WAL.(FsyncReporter); ok {
			fsyncNS = fr.LastFsyncNS()
		}
		tr.splitTail("fsync", fsyncNS)
	}

	// Point of no return: the prototype and every world copy must absorb
	// the same ops.
	if err := e.strat.apply(ops, tr); err != nil {
		return nil, err
	}

	tr.span("cache_invalidate")
	e.dataEpoch.Store(epoch) // == Add(1): writeMu serializes committers
	e.m.writes.Inc()
	outcome = "ok"
	res = &ExecResult{
		SQL:          sql,
		RowsAffected: int64(len(ops)),
		Epoch:        epoch,
		Chains:       e.cfg.Chains,
		Elapsed:      time.Since(start),
	}
	return res, nil
}

// applyPrototype lands ops on the prototype through the engine's one log
// over it, whose delta nobody folds: the prototype has no views, and
// chains clone the store, not the delta. The caller holds the write lock,
// so no reader observes a half-applied batch. Resolution ran on this
// world, so an error is a bug, reported rather than papered over.
func (e *Engine) applyPrototype(ops []world.Op) error {
	_, err := e.proto.ApplyOps(ops)
	e.proto.Discard()
	return err
}

// apply lands the ops on the prototype, then fans them out to every
// chain in parallel and waits for all of them. It is deliberately not
// cancellable — a write that reached some chains must reach all of them
// — so only engine shutdown aborts. A traced write spans fanout /
// burn_in / delta_fold / republish: each phase opens when the slowest
// chain finished the one before. republish copies nothing; it keeps its
// name as a stable span and runs from the slowest chain's delta fold to
// the fan-out's return.
func (p pool) apply(ops []world.Op, tr *qtrace) error {
	tr.span("fanout")
	if err := p.applyPrototype(ops); err != nil {
		return err
	}
	ends := make([][3]time.Time, len(p.chains))
	if err := p.each(context.Background(), func(i int, c *chain) (err error) {
		ends[i], err = c.applyWrite(ops, p.cfg.StepsPerSample)
		return err
	}); err != nil || tr == nil {
		return err
	}
	// Every chain's marks are ordered, so the per-phase maxima are too
	// and the spans stay contiguous.
	for ph, name := range [3]string{"burn_in", "delta_fold", "republish"} {
		var slowest time.Time
		for _, marks := range ends {
			if marks[ph].After(slowest) {
				slowest = marks[ph]
			}
		}
		tr.spanAt(name, slowest)
	}
	return nil
}

// each runs f(i, c) on every chain's goroutine (via call, under ctx) in
// parallel and waits for all of them, returning the first error in pool
// order.
func (p pool) each(ctx context.Context, f func(i int, c *chain) error) error {
	errs := make([]error, len(p.chains))
	var wg sync.WaitGroup
	for i, c := range p.chains {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.call(ctx, func() error { return f(i, c) })
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Checkpoint has the WAL sink snapshot the prototype world, when it can
// (store.DiskStore can; any other sink makes it a no-op). It runs under
// the write lock's read side, so the world the sink clones holds every
// committed write and no half-applied one, while certain reads go on.
func (e *Engine) Checkpoint() error {
	ck, ok := e.cfg.WAL.(interface{ Checkpoint() error })
	if !ok {
		return nil
	}
	e.writeMu.RLock()
	defer e.writeMu.RUnlock()
	return ck.Checkpoint()
}

// DataEpoch returns the number of committed writes — the data-epoch
// component of every result-cache key.
func (e *Engine) DataEpoch() int64 { return e.dataEpoch.Load() }
