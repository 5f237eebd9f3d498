package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"factordb/internal/ra"
	"factordb/internal/world"
)

// ExecResult reports one committed DML mutation.
type ExecResult struct {
	SQL          string        `json:"sql"`
	RowsAffected int64         `json:"rows_affected"`
	Epoch        int64         `json:"epoch"`  // data epoch after the commit
	Chains       int           `json:"chains"` // worlds the mutation was applied to
	Elapsed      time.Duration `json:"elapsed_ns"`

	// Trace is the span breakdown of this write, present only when the
	// caller opted in (ExecOptions.Trace) or the engine's trace sampler
	// picked it. Spans follow the write-span contract in doc.go.
	Trace *QueryTrace `json:"trace,omitempty"`
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
// to every chain's world, and blocks until all chains have absorbed it.
// This is the paper's data-update model made operational: the database is
// one possible world plus a factor graph, so a write mutates the world
// in place and the chains keep sampling — marginals re-equilibrate with
// no lineage recomputation and no engine restart.
//
// The mutation is resolved once, on chain 0, into concrete row-level ops
// (predicates evaluated, row identities fixed), then the identical op
// list is fanned out to every chain — chain worlds share row identities
// by construction, so they never diverge on evidence. Each chain applies
// the ops at an epoch boundary, walks WriteBurnIn steps to
// re-equilibrate, folds the combined delta into its live views once, and
// resets their estimators: queries in flight across the write complete
// with post-write samples only, and queries issued after Exec returns
// never observe pre-write state. Committing bumps the data epoch, which
// is part of every result-cache key, so all cached pre-write answers
// become unreachable. (Under a private-chain mode there are no chains to
// fan out to: the ops are resolved against, and applied to, the source's
// prototype world — ErrReadOnly when it has none.)
//
// Writes pass the same admission control as queries and are serialized
// with each other. ctx is honored up to the point of no return: once the
// fan-out starts, Exec completes (or the engine closes) regardless of
// cancellation, because a half-applied write would fork the chains'
// worlds.
func (e *Engine) Exec(ctx context.Context, sql string) (*ExecResult, error) {
	return e.ExecTraced(ctx, sql, ExecOptions{})
}

// ExecTraced is Exec with per-write options (tracing, trace-ID
// propagation).
func (e *Engine) ExecTraced(ctx context.Context, sql string, opts ExecOptions) (*ExecResult, error) {
	if e.Closed() {
		return nil, ErrClosed
	}
	begin := time.Now()
	tr := e.startTrace("exec", sql, opts.Trace, opts.TraceID)
	tr.span("compile")
	mut, cached, err := e.cfg.Plans.CompileMutation(sql)
	if err != nil {
		e.m.failed.Inc()
		e.finishExec(ctx, sql, nil, "error", tr, begin)
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	if cached {
		e.m.planHits.Inc()
		tr.attr("plan_cache", "hit")
	} else {
		tr.attr("plan_cache", "miss")
	}
	return e.execMutation(ctx, sql, mut, tr, begin)
}

// ExecMutation applies an already compiled mutation — the prepared-
// statement path. Semantics match Exec exactly.
func (e *Engine) ExecMutation(ctx context.Context, sql string, mut ra.Mutation) (*ExecResult, error) {
	return e.ExecMutationTraced(ctx, sql, mut, ExecOptions{})
}

// ExecMutationTraced is ExecMutation with per-write options.
func (e *Engine) ExecMutationTraced(ctx context.Context, sql string, mut ra.Mutation, opts ExecOptions) (*ExecResult, error) {
	if e.Closed() {
		return nil, ErrClosed
	}
	begin := time.Now()
	tr := e.startTrace("exec", sql, opts.Trace, opts.TraceID)
	tr.span("compile")
	tr.attr("plan_cache", "prebound")
	return e.execMutation(ctx, sql, mut, tr, begin)
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

// execMutation is the shared write core behind Exec and ExecMutation:
// admission, single-point resolution, WAL append, the strategy's apply,
// epoch bump. A traced write spans each stage contiguously —
// compile / admission_wait / resolve / wal_append / fsync / the apply
// spans / cache_invalidate.
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
	ops, err := e.strat.resolve(ctx, mut)
	if err != nil {
		if errors.Is(err, ErrClosed) || errors.Is(err, ctx.Err()) {
			outcome = "canceled"
			return nil, err
		}
		if errors.Is(err, ErrReadOnly) {
			return nil, err
		}
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

	// Write-ahead: the batch goes to the durable log before any chain
	// sees it. An Append error vetoes the write with every world still
	// untouched. The converse failure — Append succeeded but the fan-out
	// below aborted on shutdown — leaves a record that recovery will
	// replay, which is the standard WAL commit rule: durable means
	// committed.
	epoch := e.dataEpoch.Load() + 1
	if e.cfg.WAL != nil {
		tr.span("wal_append")
		if err := e.cfg.WAL.Append(epoch, ops); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrWAL, err)
		}
		var fsyncNS int64
		if fr, ok := e.cfg.WAL.(FsyncReporter); ok {
			fsyncNS = fr.LastFsyncNS()
		}
		tr.splitTail("fsync", fsyncNS)
	}

	// Point of no return: every world copy must absorb the same ops.
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

// resolve resolves once, on chain 0: chain worlds share row identities by
// construction, so the op list is valid on every chain.
func (p pool) resolve(ctx context.Context, mut ra.Mutation) ([]world.Op, error) {
	return p.chains[0].resolveMutation(ctx, mut)
}

// apply fans the ops out to every chain in parallel and waits for all of
// them; only engine shutdown aborts. A traced write spans fanout /
// burn_in / delta_fold / republish, collecting per-chain phase marks and
// advancing the span as the whole pool completes each stage — the phases
// are clocked by the slowest chain.
func (p pool) apply(ops []world.Op, tr *qtrace) error {
	tr.span("fanout")
	var phases chan chainPhase
	if tr != nil {
		phases = make(chan chainPhase, len(p.chains)*int(numWritePhases))
	}
	errs := make(chan error, len(p.chains))
	for _, c := range p.chains {
		go func(c *chain) { errs <- c.applyOps(p.cfg.WriteBurnIn, ops, phases) }(c)
	}
	var failed error
	counts := [numWritePhases]int{}
	cur := phaseOpsApplied
	// The span to open once every chain finishes the current phase; the
	// last phase is closed by the reply collection itself.
	next := [numWritePhases]string{"burn_in", "delta_fold", "republish", ""}
	advance := func(ph chainPhase) {
		counts[ph]++
		for cur < numWritePhases && counts[cur] == len(p.chains) {
			if next[cur] != "" {
				tr.span(next[cur])
			}
			cur++
		}
	}
	for done := 0; done < len(p.chains); {
		if phases == nil {
			if err := <-errs; err != nil && failed == nil {
				failed = err
			}
			done++
			continue
		}
		select {
		case err := <-errs:
			done++
			if err != nil && failed == nil {
				failed = err
			}
		case ph := <-phases:
			advance(ph)
		}
	}
	// A chain buffers all its phase marks before replying, so any marks
	// the select raced past are already in the channel: drain them so the
	// phase spans open even when every reply won the select.
	for phases != nil {
		select {
		case ph := <-phases:
			advance(ph)
		default:
			phases = nil
		}
	}
	return failed
}

// DataEpoch returns the number of committed writes — the data-epoch
// component of every result-cache key.
func (e *Engine) DataEpoch() int64 { return e.dataEpoch.Load() }

// resolveMutation asks the chain goroutine to resolve mut against its
// world, honoring ctx and engine shutdown.
func (c *chain) resolveMutation(ctx context.Context, mut ra.Mutation) ([]world.Op, error) {
	req := resolveReq{mut: mut, reply: make(chan resolveReply, 1)}
	select {
	case c.ctl <- req:
	case <-c.done:
		return nil, ErrClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	select {
	case rep := <-req.reply:
		return rep.ops, rep.err
	case <-c.done:
		return nil, ErrClosed
	}
}

// applyOps delivers a resolved op list to the chain goroutine and waits
// for it to be absorbed. Deliberately not cancellable by context: a
// write that reached some chains must reach all of them.
func (c *chain) applyOps(burnIn int, ops []world.Op, phases chan<- chainPhase) error {
	req := applyReq{ops: ops, burnIn: burnIn, phases: phases, reply: make(chan error, 1)}
	select {
	case c.ctl <- req:
	case <-c.done:
		return ErrClosed
	}
	select {
	case err := <-req.reply:
		return err
	case <-c.done:
		return ErrClosed
	}
}
