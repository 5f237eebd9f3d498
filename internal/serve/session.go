package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"factordb/internal/core"
	"factordb/internal/relstore"
	"factordb/internal/sqlparse"
	"factordb/internal/world"
)

// ErrBadQuery wraps SQL compile and bind failures so transports can map
// them to client errors (HTTP 400) rather than server faults.
var ErrBadQuery = errors.New("factordb: bad query")

// DefaultConfidence is the two-sided interval mass of a query that does
// not choose one.
const DefaultConfidence = 0.95

// QueryOptions tunes one query evaluation.
type QueryOptions struct {
	// Samples is the total sample budget across all chains (0 = engine
	// default; negative is ErrBadQuery). More samples tighten the
	// confidence intervals at the cost of latency: the walk advances k
	// steps per sample per chain.
	Samples int
	// Confidence is the two-sided interval mass in (0,1); 0 means
	// DefaultConfidence.
	Confidence float64
	// NoCache bypasses the result cache for this query.
	NoCache bool
	// Trace records a span breakdown of this query's execution, returned
	// in Result.Trace and kept in the engine's debug ring. Off by
	// default; the untraced path pays a nil check per span only.
	Trace bool
	// TraceID propagates a caller-assigned correlation ID (the trace-id
	// field of a W3C traceparent) into the recorded trace. Empty means
	// the engine assigns one when a trace is recorded.
	TraceID string
	// Args are the values of the statement's ? placeholders, bound
	// positionally as literals (strings, integers, floats). The count
	// must match; a statement with placeholders and no Args fails on its
	// first unbound placeholder.
	Args []any
}

// Result is a completed (or deadline-truncated) query answer: every
// answer tuple with its marginal probability and confidence interval
// (Equations 4–5 of the paper), ranked. The answer — columns and tuples —
// is frozen when the evaluation publishes it and is shared read-only by
// the result cache and every reader: the accessors below hand out values,
// never a slice that aliases it. So is its wire encoding (Encoded). The
// exported fields are the caller's own header; each cache hit gets a
// fresh one.
type Result struct {
	SQL        string
	Samples    int64
	Chains     int
	Epoch      int64 // latest chain epoch merged in
	Confidence float64
	Partial    bool // deadline hit before the budget
	Cached     bool
	// Elapsed is the evaluation's wall time; a cache hit reports the
	// original evaluation's.
	Elapsed time.Duration

	// EarlyStop reports that a ranked query (ORDER BY P DESC LIMIT k)
	// finished before its sample budget because the confidence intervals
	// already separated the top k from the rest — refining the remaining
	// tuples could no longer change the answer.
	EarlyStop bool

	// Trace is the span breakdown of this request, present only when it
	// opted in (QueryOptions.Trace) or the engine's trace sampler picked
	// it. Immutable. A cache hit carries its own trace of the lookup
	// (nil when untraced), never the original evaluation's.
	Trace *QueryTrace

	cols   []string       // the plan cache's compiled column names
	tuples []core.TupleCI // values shared with the chains' estimators
	// wire is the answer's transport encoding, rendered on first use and
	// shared, like the answer, by every header copy (see Encoded).
	wire *encoding
}

// encoding is a write-once memo of an answer's wire bytes.
type encoding struct {
	once sync.Once
	b    []byte
}

// Encoded returns render's bytes for this answer, rendering them once:
// the evaluation that published the answer and every cache hit of it
// share the first call's bytes, which no caller may modify. render may
// read only what every header over the answer holds alike — the answer
// and its Samples, Chains, Epoch, Confidence, Partial, EarlyStop and
// Elapsed — never SQL, Cached or Trace, which are per request.
func (r *Result) Encoded(render func(*Result) []byte) []byte {
	if r.wire == nil {
		return render(r)
	}
	r.wire.once.Do(func() { r.wire.b = render(r) })
	return r.wire.b
}

// Columns returns a copy of the output column names.
func (r *Result) Columns() []string { return append([]string(nil), r.cols...) }

// Len returns the number of answer tuples.
func (r *Result) Len() int { return len(r.tuples) }

// Width returns the number of column values of tuple i.
func (r *Result) Width(i int) int { return len(r.tuples[i].Tuple) }

// Value returns column j of tuple i. Values are immutable.
func (r *Result) Value(i, j int) relstore.Value { return r.tuples[i].Tuple[j] }

// Prob returns tuple i's estimated marginal probability.
func (r *Result) Prob(i int) float64 { return r.tuples[i].P }

// CI returns the confidence interval of tuple i's marginal.
func (r *Result) CI(i int) (lo, hi float64) { return r.tuples[i].Lo, r.tuples[i].Hi }

// registration tracks one chain's share of a query. A completed chain
// stores its final snapshot in final before closing done; the cell is the
// fallback for chains interrupted by a deadline, cancellation, early stop
// or shutdown, which publish into it when the session detaches or the
// chain stops. wanted is the view's snapshot request flag, which a ranked
// reader raises to watch the estimate while it waits.
type registration struct {
	c      *chain
	id     viewID
	cell   *world.Cell[core.Snapshot]
	wanted *atomic.Bool
	done   chan struct{}
	final  atomic.Pointer[finalSnap]
}

// snapshot returns the chain's contribution to the merged answer: the
// completion snapshot when the chain finished this query's budget, else
// whatever the shared view last published — after detach, the estimate
// as of the detach — or nil.
func (r *registration) snapshot() *core.Snapshot {
	if f := r.final.Load(); f != nil {
		return f.snap
	}
	return r.cell.Load()
}

// detach drops the subscription, waiting until the chain has published
// the view's current estimate to the cell and dropped it, so the caller
// merges every sample walked and knows no further snapshots are owed.
func (r *registration) detach() {
	// Shutdown is the only possible error, and a stopping chain
	// publishes its live views itself.
	_ = r.c.call(context.Background(), func() error { r.c.detach(r.id); return nil })
}

// detachUnfinished detaches every registration whose chain has not
// completed it; completed views were already removed by the chain.
func detachUnfinished(regs []*registration) {
	for _, r := range regs {
		select {
		case <-r.done:
		default:
			r.detach()
		}
	}
}

// Query compiles sql, registers a materialized view for it on every chain
// in the pool, and blocks until the sample budget is met or ctx expires.
// Because the views of all in-flight queries share each chain's walk, the
// marginal cost of a concurrent query is its view maintenance only — the
// k walk-steps per sample are already paid for. A statement with ?
// placeholders is bound with opts.Args first; an EXPLAIN is answered
// without sampling (see explain).
//
// If ctx expires after at least one sample was collected, the partial
// estimate is returned with Partial set: MCMC estimates are anytime, and
// a truncated answer with wide intervals beats an error.
//
// Ranked queries (ORDER BY P DESC LIMIT k) may finish before the budget
// with EarlyStop set: once the per-chain ranked snapshots, merged at read
// time, separate the k-th tuple's confidence interval from the (k+1)-th's,
// tuples outside the top k can no longer enter it and further refinement
// is wasted walk.
//
// The returned Result's exported fields belong to the caller. Its answer
// is shared read-only with the result cache and every later hit, so a
// hit copies no tuples, and nothing a caller can do to its Result
// reaches another caller's.
func (e *Engine) Query(ctx context.Context, sql string, opts QueryOptions) (*Result, error) {
	if e.Closed() {
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Compile through the plan cache, keyed on the exact SQL byte string:
	// a repeated spelling skips lexing, parsing, planning and binding, and
	// a repeated statement with placeholders skips the parse. The result
	// cache below keys on the bound fingerprint rather than the SQL text,
	// so whitespace, keyword case, alias spelling, predicate-order and
	// placeholder variants of one query remain one result entry.
	begin := time.Now()
	comp, cached, err := e.plans.Lookup(sql, sqlparse.UseQuery)
	if err == nil && comp.Explain != nil {
		return e.explain(ctx, sql, comp.Explain, opts)
	}
	opts, oerr := e.fillOpts(opts)
	if oerr != nil {
		return nil, oerr
	}
	if err == nil {
		comp, err = comp.Bind(opts.Args)
	}

	// Tracing is opt-in (per query, or the engine's sampler): the
	// disabled state is a nil *qtrace whose every method returns on a
	// nil check, so untraced queries pay one branch per would-be span.
	// An enabled slow-query log records a private trace for every query
	// so the breakdown exists if this one crosses the threshold.
	tr := e.startTrace("query", sql, opts.Trace, opts.TraceID, begin)
	if err != nil {
		e.m.failed.Inc()
		e.finishTrace(tr, "error")
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	e.notePlanCache(tr, cached)
	return e.queryCompiled(ctx, sql, comp, opts, tr)
}

// notePlanCache counts and traces a compile's plan-cache outcome.
func (e *Engine) notePlanCache(tr *qtrace, hit bool) {
	if hit {
		e.m.planHits.Inc()
		tr.attr("plan_cache", "hit")
	} else {
		tr.attr("plan_cache", "miss")
	}
}

// fillOpts defaults zero options and rejects out-of-range ones.
func (e *Engine) fillOpts(opts QueryOptions) (QueryOptions, error) {
	if opts.Samples < 0 {
		e.m.failed.Inc()
		return opts, fmt.Errorf("%w: sample budget %d is negative", ErrBadQuery, opts.Samples)
	}
	if opts.Samples == 0 {
		opts.Samples = e.cfg.DefaultSamples
	}
	if opts.Confidence == 0 {
		opts.Confidence = DefaultConfidence
	}
	if opts.Confidence <= 0 || opts.Confidence >= 1 {
		e.m.failed.Inc()
		return opts, fmt.Errorf("%w: confidence %v outside (0,1)", ErrBadQuery, opts.Confidence)
	}
	return opts, nil
}

// queryCompiled is Query's evaluation core: result-cache probe,
// admission, write-consistent collection over the chain pool, merge,
// rank, and cache fill.
func (e *Engine) queryCompiled(ctx context.Context, sql string, comp *sqlparse.Compiled, opts QueryOptions, tr *qtrace) (*Result, error) {
	tr.setPlan(comp.Fingerprint)
	// The key adds the result-level spec (ORDER BY P / LIMIT shape the
	// cached presentation) and the per-query options that scale the
	// estimate; plan identity itself is options-free. The data epoch
	// prefix is the write path's invalidation: every committed mutation
	// bumps it, making all entries keyed under earlier epochs
	// unreachable — a cached pre-write answer can never be served after
	// the write, however the query was spelled. The key is appended into
	// a stack buffer, so a probe allocates nothing.
	var keyBuf [192]byte
	if !opts.NoCache {
		tr.span("cache_probe")
		key := appendCacheKey(keyBuf[:0], e.dataEpoch.Load(), comp, opts)
		if frozen, ok := e.cache.get(key, time.Now()); ok {
			e.m.hits.Inc()
			// A fresh header over the shared answer: the per-request
			// fields never touch the cached entry.
			res := *frozen
			res.Cached = true
			res.SQL = sql // a fingerprint hit may come from a textual variant
			tr.attr("result", "hit")
			res.Trace = e.finishTrace(tr, "cached")
			return &res, nil
		}
		tr.attr("result", "miss")
	}

	tr.span("admission_wait")
	if err := e.admit.acquire(ctx); err != nil {
		if errors.Is(err, ErrOverloaded) {
			e.m.rejected.Inc()
		}
		e.finishTrace(tr, "error")
		return nil, err
	}
	defer e.admit.release()

	start := time.Now()
	z := math.Sqrt2 * math.Erfinv(opts.Confidence)

	// Collect until one pass is write-consistent. Chains absorb a write
	// independently, so a query in flight across one can end up with
	// some chains completed pre-write and others post-write; merging
	// those would blend two answer distributions, so such a pass is
	// discarded and re-collected (the reset views hand every retry a
	// fresh full budget). Consistency is judged by the write generations
	// stamped into the chains' completion snapshots: equal generations
	// mean every chain answered from the same world content, however
	// many writes committed meanwhile — so steady write traffic does not
	// starve readers; only the narrow mid-fan-out interleaving retries.
	// Early-stopped passes merge live cells instead of completion
	// snapshots and carry no generations, so they fall back to the
	// coarser data-epoch check. The retry budget is bounded so a
	// deadline-free reader cannot loop forever: a query torn that many
	// consecutive times is shed as overloaded (an honest, retryable
	// signal) rather than answered with a blend.
	var col collection
	var epoch0 int64
	for attempt := 0; ; attempt++ {
		epoch0 = e.dataEpoch.Load()
		var err error
		col, err = e.strat.collectOnce(ctx, comp, opts, z, tr)
		if err != nil {
			e.finishTrace(tr, "error")
			return nil, err
		}
		if col.partial || col.closed {
			break
		}
		consistent := !col.blended
		if col.earlyStop && e.dataEpoch.Load() != epoch0 {
			consistent = false
		}
		if consistent {
			break
		}
		if attempt >= maxCollectRetries {
			e.m.rejected.Inc()
			e.finishTrace(tr, "error")
			return nil, fmt.Errorf("%w: query torn by concurrent writes %d times",
				ErrOverloaded, attempt+1)
		}
	}
	merged, partial, closed, earlyStop := col.merged, col.partial, col.closed, col.earlyStop

	if merged.Samples() == 0 {
		e.finishTrace(tr, "error")
		if closed {
			return nil, ErrClosed
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// All chains hit their targets yet nothing was published — cannot
		// happen (a completed view publishes every sample), so any zero
		// here is a real bug, not a timeout.
		return nil, fmt.Errorf("serve: no samples collected for %q", sql)
	}

	tr.span("rank")
	res := &Result{
		SQL:        sql,
		Samples:    merged.Samples(),
		Chains:     e.cfg.Chains,
		Epoch:      col.epoch,
		Confidence: opts.Confidence,
		Partial:    partial,
		EarlyStop:  earlyStop,
		Elapsed:    time.Since(start),
		cols:       comp.Cols,
		tuples:     core.SortTupleCIs(merged.ResultsCI(z), comp.Spec),
		wire:       new(encoding),
	}
	e.m.queries.Inc()
	e.m.latency.Observe(res.Elapsed.Seconds())
	outcome := "ok"
	switch {
	case earlyStop:
		outcome = "early_stop"
	case partial:
		outcome = "partial"
	}
	res.Trace = e.finishTrace(tr, outcome)
	// Cache only answers whose data epoch is still current: a consistent
	// pass collected across a commit is a correct answer to return, but
	// its epoch attribution is ambiguous, and the entry would either be
	// born unreachable or risk pinning a pre-write answer under the
	// post-write key.
	if !opts.NoCache && !partial && e.dataEpoch.Load() == epoch0 {
		frozen := *res // the entry's own header, free of this request's fields
		frozen.SQL, frozen.Trace = "", nil
		e.cache.put(appendCacheKey(keyBuf[:0], epoch0, comp, opts), &frozen, time.Now())
	}
	return res, nil
}

// maxCollectRetries bounds how many torn collection passes a query
// discards before degrading to a best-effort (partial) answer.
const maxCollectRetries = 4

// collection is the outcome of one register-wait-merge pass over the
// chain pool.
type collection struct {
	merged    *core.Estimator
	epoch     int64 // latest chain epoch merged in
	partial   bool
	closed    bool
	earlyStop bool
	// blended reports that the chains completed this pass on different
	// sides of a write (unequal write generations): the merge mixes two
	// answer distributions and must be discarded.
	blended bool
}

// collectOnce registers the plan on every chain, waits for the sample
// budget (or cancellation, shutdown, or ranked early stop), detaches the
// chains that did not complete, and merges the per-chain snapshots. Each
// call is self-contained: its views are detached before it returns.
func (p pool) collectOnce(ctx context.Context, comp *sqlparse.Compiled,
	opts QueryOptions, z float64, tr *qtrace) (col collection, err error) {
	perChain := int64((opts.Samples + len(p.chains) - 1) / len(p.chains))
	regs := make([]*registration, 0, len(p.chains))
	defer func() {
		if err != nil {
			detachUnfinished(regs)
		}
	}()
	tr.span("register")
	reused := 0
	for _, c := range p.chains {
		reg := &registration{
			c:    c,
			id:   viewID(p.nextID.Add(1)),
			done: make(chan struct{}),
		}
		var hit bool
		if err := c.call(ctx, func() (err error) {
			hit, err = c.register(reg, comp.Stmt, comp.Fingerprint, perChain)
			return err
		}); err != nil {
			p.m.failed.Inc()
			if errors.Is(err, ErrClosed) || errors.Is(err, ctx.Err()) {
				return collection{}, err
			}
			return collection{}, fmt.Errorf("%w: %v", ErrBadQuery, err)
		}
		if hit {
			reused++
		}
		regs = append(regs, reg)
	}
	// view_reuse tells registry hits (shared view already live) from
	// fresh mounts, per chain.
	tr.attr("view_reuse", fmt.Sprintf("%d/%d", reused, len(p.chains)))

	// Ranked queries watch the merged snapshots while waiting: when the
	// top k separates, the remaining budget is handed back to the pool.
	var tick <-chan time.Time
	if comp.Spec.TopKByProb() {
		ticker := time.NewTicker(topKCheckInterval)
		defer ticker.Stop()
		tick = ticker.C
	}

	tr.span("sample_wait")
	lastEpochs := int64(-1)
wait:
	for _, r := range regs {
		// Drain completions first: if the view already hit its target, a
		// simultaneously-closing chain or expiring context must not win
		// the select below and mark a complete answer partial.
		select {
		case <-r.done:
			continue
		default:
		}
	regWait:
		for {
			select {
			case <-r.done:
				break regWait
			case <-r.c.done:
				// Engine closed underneath us: the chain goroutine has
				// exited and will never complete this view. Return
				// whatever was published rather than blocking until ctx
				// expires.
				col.partial = true
				col.closed = true
				break wait
			case <-ctx.Done():
				col.partial = true
				break wait
			case <-tick:
				// Ask each chain for a snapshot at its next epoch, for
				// the next tick to test. Merging and re-ranking every
				// snapshot is linear in the answer set; only pay for it
				// when some chain has published a new epoch since the
				// last check.
				for _, r := range regs {
					r.wanted.Store(true)
				}
				if ep := epochSum(regs); ep != lastEpochs {
					lastEpochs = ep
					if topKSeparated(regs, comp.Spec.Limit, z) {
						col.earlyStop = true
						p.m.topkStops.Inc()
						break wait
					}
				}
			}
		}
	}

	// Detaching publishes each unfinished chain's estimate, so a partial
	// or early-stopped answer carries every sample walked.
	detachUnfinished(regs)

	tr.span("snapshot_merge")
	col.merged = core.NewEstimator()
	gen := int64(-1)
	for _, r := range regs {
		if f := r.final.Load(); f != nil {
			if gen >= 0 && f.gen != gen {
				col.blended = true
			}
			gen = f.gen
		}
		if snap := r.snapshot(); snap != nil {
			col.merged.Merge(snap)
			if snap.Epoch > col.epoch {
				col.epoch = snap.Epoch
			}
		}
	}
	tr.attr("samples", fmt.Sprintf("%d", col.merged.Samples()))
	if col.earlyStop {
		tr.attr("early_stop", "true")
	}
	return col, nil
}

// topKCheckInterval is how often a waiting ranked query re-merges the
// chains' snapshots to test for top-k separation.
const topKCheckInterval = 5 * time.Millisecond

// minTopKStopSamples is the floor of merged samples before an early stop
// is considered; below it the intervals are too wide to trust anyway and
// the check would only burn cycles.
const minTopKStopSamples = 16

// epochSum is a cheap change detector for the early-stop check: per-
// chain epochs are monotone, and the merged estimate can only change
// when some chain publishes a snapshot for a new epoch.
func epochSum(regs []*registration) int64 {
	var sum int64
	for _, r := range regs {
		if snap := r.snapshot(); snap != nil {
			sum += snap.Epoch
		}
	}
	return sum
}

// topKSeparated merges the chains' latest published snapshots and
// reports whether the ranked answer is already decided: more than k
// tuples observed, and the Wilson interval of the k-th ranked tuple
// lies entirely above the (k+1)-th's — no tuple outside the top k can
// overtake one inside it, so further refinement cannot change the
// answer's membership.
func topKSeparated(regs []*registration, k int64, z float64) bool {
	merged := core.NewEstimator()
	for _, r := range regs {
		if snap := r.snapshot(); snap != nil {
			merged.Merge(snap)
		}
	}
	if merged.Samples() < minTopKStopSamples {
		return false
	}
	cis := merged.ResultsCI(z)
	if int64(len(cis)) <= k {
		// The answer currently fits the limit, but more walking may
		// still surface new tuples; keep sampling.
		return false
	}
	return cis[k-1].Lo > cis[k].Hi
}

// appendCacheKey appends the result-cache key of an evaluation to dst:
// the data epoch, the bound fingerprint, the output names it leaves out,
// the result spec and the options that scale the estimate.
func appendCacheKey(dst []byte, epoch int64, comp *sqlparse.Compiled, opts QueryOptions) []byte {
	dst = append(dst, 'w')
	dst = strconv.AppendInt(dst, epoch, 10)
	dst = append(dst, '|')
	dst = append(dst, comp.Fingerprint...)
	for _, c := range comp.Cols {
		dst = append(strconv.AppendInt(append(dst, '|'), int64(len(c)), 10), ':')
		dst = append(dst, c...)
	}
	dst = append(dst, "|o="...)
	for _, o := range comp.Spec.Order {
		if o.ByProb {
			dst = append(dst, 'P')
		} else {
			dst = strconv.AppendInt(dst, int64(o.Index), 10)
		}
		if o.Desc {
			dst = append(dst, '-')
		} else {
			dst = append(dst, '+')
		}
	}
	dst = append(dst, ";l="...)
	dst = strconv.AppendInt(dst, comp.Spec.Limit, 10)
	dst = append(dst, "|n="...)
	dst = strconv.AppendInt(dst, int64(opts.Samples), 10)
	dst = append(dst, "|c="...)
	return strconv.AppendFloat(dst, opts.Confidence, 'g', -1, 64)
}
