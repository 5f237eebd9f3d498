package serve

import (
	"sync"
	"sync/atomic"
	"time"
)

// Per-query tracing: a traced query records a contiguous sequence of
// spans — admission wait, compile, cache probe, per-pass view
// registration / sampling wait / snapshot merge, ranking — whose
// durations tile the query's wall time exactly (each span begins the
// instant the previous one ends). Tracing is opt-in per query; a nil
// *qtrace is the disabled state, and every recording method is a nil
// check away from free, so the untraced hot path pays one predictable
// branch per would-be span (BenchmarkTraceOverhead pins this).
//
// Span names and attribute keys are a stable contract (see doc.go):
// dashboards and the benchmark's serve.span_ms.* probes (bench/) parse
// them, and TestSpanGlossary pins them to doc.go.

// TraceSpan is one step of a traced query. Start is the offset from the
// query's Begin; spans are contiguous and in order, so the durations sum
// to QueryTrace.WallNS.
type TraceSpan struct {
	Name    string            `json:"name"`
	StartNS int64             `json:"start_ns"`
	DurNS   int64             `json:"dur_ns"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// QueryTrace is the span breakdown of one served query or write. It is
// immutable once returned (the engine hands the same pointer to the
// result and the debug ring).
type QueryTrace struct {
	ID  int64  `json:"id"`
	SQL string `json:"sql"`
	// TraceID is the W3C trace-id (32 lowercase hex chars) correlating
	// this trace with the caller's distributed trace: the one the client
	// propagated (the TraceID option, or a traceparent header over HTTP),
	// or one the database assigned. Slow-query and write-audit log
	// records carry the same ID, so logs, /debug/traces and client traces
	// cross-reference.
	TraceID string `json:"trace_id,omitempty"`
	// Kind distinguishes the trace families sharing the ring:
	// "query" (SELECT), "exec" (DML write) and "recovery" (startup).
	Kind    string      `json:"kind,omitempty"`
	Plan    string      `json:"plan_fingerprint,omitempty"`
	Begin   time.Time   `json:"begin"`
	WallNS  int64       `json:"wall_ns"`
	Outcome string      `json:"outcome"` // see the span glossary in the factordb package doc
	Spans   []TraceSpan `json:"spans"`
}

// qtrace builds a QueryTrace. All methods are safe on a nil receiver —
// the disabled state — and must only be called from the query goroutine.
type qtrace struct {
	qt    QueryTrace
	begin time.Time
	open  bool
	start time.Time // start of the open span
	// publish marks traces the caller asked for (or the sampler picked):
	// those land in the result and the debug ring. A trace recorded only
	// because the slow-query log needs a breakdown stays private unless
	// the query turns out slow.
	publish bool
}

// newTrace starts a trace clocked from begin.
func newTrace(id int64, sql string, begin time.Time) *qtrace {
	return &qtrace{
		qt:    QueryTrace{ID: id, SQL: sql, Begin: begin},
		begin: begin,
		start: begin,
	}
}

// span closes the open span (if any) and opens a new one at the same
// instant, keeping the timeline gap-free.
func (t *qtrace) span(name string) {
	if t == nil {
		return
	}
	t.spanAt(name, time.Now())
}

// spanAt is span at a given instant, no earlier than the open span's
// start.
func (t *qtrace) spanAt(name string, now time.Time) {
	t.closeSpan(now)
	t.qt.Spans = append(t.qt.Spans, TraceSpan{Name: name, StartNS: now.Sub(t.begin).Nanoseconds()})
	t.open = true
	t.start = now
}

func (t *qtrace) closeSpan(now time.Time) {
	if !t.open {
		return
	}
	s := &t.qt.Spans[len(t.qt.Spans)-1]
	s.DurNS = now.Sub(t.start).Nanoseconds()
	t.open = false
}

// attr annotates the open (or, after finish, the last) span.
func (t *qtrace) attr(key, val string) {
	if t == nil || len(t.qt.Spans) == 0 {
		return
	}
	s := &t.qt.Spans[len(t.qt.Spans)-1]
	if s.Attrs == nil {
		s.Attrs = make(map[string]string, 2)
	}
	s.Attrs[key] = val
}

// splitTail closes the open span and carves its final tailNS into a new
// span named name, keeping the timeline contiguous. This is how fsync
// gets its own span: the WAL sink reports how much of the append it
// spent in fsync, and that tail is re-labeled after the fact. The new
// span is left open with its start backdated by tailNS, so the next
// span (or finish) closes it at its own instant and no gap opens.
func (t *qtrace) splitTail(name string, tailNS int64) {
	if t == nil || !t.open {
		return
	}
	now := time.Now()
	t.closeSpan(now)
	s := &t.qt.Spans[len(t.qt.Spans)-1]
	if tailNS < 0 {
		tailNS = 0
	}
	if tailNS > s.DurNS {
		tailNS = s.DurNS
	}
	s.DurNS -= tailNS
	t.qt.Spans = append(t.qt.Spans, TraceSpan{
		Name:    name,
		StartNS: s.StartNS + s.DurNS,
	})
	t.open = true
	t.start = now.Add(-time.Duration(tailNS))
}

// setPlan records the statement's bound fingerprint.
func (t *qtrace) setPlan(fp string) {
	if t == nil {
		return
	}
	t.qt.Plan = fp
}

// finish closes the trace with an outcome and returns the immutable
// QueryTrace (nil on the disabled state).
func (t *qtrace) finish(outcome string) *QueryTrace {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.closeSpan(now)
	t.qt.WallNS = now.Sub(t.begin).Nanoseconds()
	t.qt.Outcome = outcome
	return &t.qt
}

// traceRing is a fixed-size ring of recent query traces behind
// GET /debug/traces. Writes are O(1) under a mutex; Snapshot returns
// newest-first copies of the pointers (traces are immutable).
type traceRing struct {
	mu   sync.Mutex
	buf  []*QueryTrace
	next int
	n    int
}

func (r *traceRing) add(t *QueryTrace) {
	if t == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// snapshot returns the buffered traces, newest first.
func (r *traceRing) snapshot() []*QueryTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*QueryTrace, 0, r.n)
	for i := 1; i <= r.n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// traceSampler decides engine-initiated tracing: when every > 0, every
// every-th query is traced even without the client asking, so the debug
// ring always has material under steady load.
type traceSampler struct {
	every int64
	n     atomic.Int64
}

func (s *traceSampler) hit() bool {
	if s == nil || s.every <= 0 {
		return false
	}
	return s.n.Add(1)%s.every == 0
}
