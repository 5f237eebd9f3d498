package serve

import (
	"context"
	"log/slog"
	"time"
)

// Structured logging: the engine emits its operational records — the
// slow-query log and the write audit — through Config.Logger (log/slog).
// Record shapes are part of the observability contract (see doc.go):
// the factorload report and the CI log-validation job parse them.

// startTrace decides tracing for one query or write (kind "query" or
// "exec"). Client opt-in and sampler hits produce published traces
// (attached to the result and ringed); an enabled slow-query log
// additionally records a private trace for every operation, so the span
// breakdown exists if this one crosses the threshold.
func (e *Engine) startTrace(kind, sql string, want bool, traceID string) *qtrace {
	publish := want || e.tracer.hit()
	if !publish && e.cfg.SlowQuery <= 0 {
		return nil
	}
	id, minted := e.MintTraceID()
	if traceID == "" {
		traceID = minted
	}
	tr := newTrace(id, sql, time.Now())
	tr.publish, tr.qt.Kind, tr.qt.TraceID = publish, kind, traceID
	return tr
}

// finishTrace closes tr with outcome, emits the slow-query record when
// the query crossed the threshold, rings the trace if it is published or
// slow (slow queries must be findable in /debug/traces so log records
// cross-reference), and returns the trace to attach to the result — nil
// for private traces, preserving the result contract that Trace is only
// present when the query opted in or the sampler picked it.
func (e *Engine) finishTrace(tr *qtrace, outcome string) *QueryTrace {
	if tr == nil {
		return nil
	}
	qt := tr.finish(outcome)
	slow := e.cfg.SlowQuery > 0 && time.Duration(qt.WallNS) >= e.cfg.SlowQuery
	if slow {
		e.logSlowQuery(qt)
	}
	if tr.publish || slow {
		e.traces.add(qt)
	}
	if !tr.publish {
		return nil
	}
	return qt
}

// logSlowQuery emits one slow-query record: trace ID (the cross-
// reference key into /debug/traces), plan fingerprint, outcome, wall
// time, and the span breakdown with durations summed per span name
// (retried collection passes repeat register/sample_wait/snapshot_merge).
func (e *Engine) logSlowQuery(qt *QueryTrace) {
	lg := e.cfg.Logger
	if lg == nil {
		return
	}
	byName := make(map[string]int64, len(qt.Spans))
	order := make([]string, 0, len(qt.Spans))
	for _, s := range qt.Spans {
		if _, ok := byName[s.Name]; !ok {
			order = append(order, s.Name)
		}
		byName[s.Name] += s.DurNS
	}
	spans := make([]slog.Attr, 0, len(order))
	for _, n := range order {
		spans = append(spans, slog.Int64(n, byName[n]))
	}
	lg.LogAttrs(context.Background(), slog.LevelWarn, "slow_query",
		slog.String("trace_id", qt.TraceID),
		slog.String("kind", qt.Kind),
		slog.String("sql", qt.SQL),
		slog.String("fingerprint", qt.Plan),
		slog.String("outcome", qt.Outcome),
		slog.Int64("wall_ns", qt.WallNS),
		slog.Int64("threshold_ns", e.cfg.SlowQuery.Nanoseconds()),
		slog.Attr{Key: "span_ns", Value: slog.GroupValue(spans...)},
	)
}

// auditWrite emits one write-audit record per Exec attempt: the epoch the
// write committed at (or the epoch it left unchanged), rows affected,
// outcome, and the trace ID when the write was traced. Committed writes
// log at Info, failures at Warn.
func (e *Engine) auditWrite(ctx context.Context, sql string, res *ExecResult, outcome string, tr *qtrace) {
	lg := e.cfg.Logger
	if lg == nil {
		return
	}
	attrs := []slog.Attr{
		slog.String("outcome", outcome),
		slog.String("sql", sql),
	}
	if tr != nil && tr.qt.TraceID != "" {
		attrs = append(attrs, slog.String("trace_id", tr.qt.TraceID))
	}
	if res != nil {
		attrs = append(attrs,
			slog.Int64("epoch", res.Epoch),
			slog.Int64("rows_affected", res.RowsAffected),
			slog.Duration("elapsed", res.Elapsed))
	} else {
		attrs = append(attrs, slog.Int64("epoch", e.dataEpoch.Load()))
	}
	lvl := slog.LevelInfo
	if outcome == "error" {
		lvl = slog.LevelWarn
	}
	lg.LogAttrs(ctx, lvl, "write.audit", attrs...)
}
