package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"sync"
	"time"

	"factordb/internal/core"
	"factordb/internal/ra"
	"factordb/internal/relstore"
	"factordb/internal/sqlparse"
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
	// Args are the values of the statement's ? placeholders, read
	// positionally as literals (strings, integers, floats) by a parse of
	// the statement's cached text; an argument list bound before reuses
	// its plan. The count must match; a statement with placeholders and
	// no Args fails on its first unbound placeholder.
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
	SQL string
	// Samples is how many possible-world samples the estimate merges. A
	// certain answer (see queryCertain) samples nothing and reports the
	// budget: it is exact, and an exact answer is worth any budget.
	Samples    int64
	Chains     int
	Epoch      int64 // latest chain epoch merged in; 0 for a certain answer, which no chain produced
	Confidence float64
	Partial    bool // deadline hit before the budget
	Cached     bool
	// Elapsed is the evaluation's wall time; a cache hit reports the
	// original evaluation's.
	Elapsed time.Duration

	// EarlyStop reports that a ranked query (ORDER BY P DESC LIMIT k)
	// finished before its sample budget because at a look of its sample
	// schedule the confidence intervals separated the top k from the
	// rest — refining the remaining tuples could no longer change the
	// answer (see Engine.Query).
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

// registration tracks one chain's share of a query. done carries a
// ranked query's looks, the first at sample count look (0: none), then
// the closing handoff when the chain completes its budget or stops; a
// session ending the subscription gets its handoff from detach.
type registration struct {
	c    *chain
	id   viewID
	look int64
	done chan handoff // capacity: the looks below the budget, plus one
}

// detach drops the subscription and returns its newest handoff: the
// estimate as of the detach, or the completion or stopped handoff the
// chain sent first, never an older unread look. Either way the caller
// merges every sample walked and no further handoff is owed.
func (r *registration) detach() handoff {
	var h handoff
	// Shutdown is the only possible error. Either way, h is set if the
	// chain ran the detach on a live subscription (c.done closes only
	// after it returns); otherwise the chain has sent its last handoff.
	_ = r.c.call(context.Background(), func() error { h = r.c.detach(r.id); return nil })
	if h.snap == nil {
		for len(r.done) > 0 {
			h = <-r.done
		}
	}
	return h
}

// Query compiles sql, registers a materialized view for it on every chain
// in the pool, and blocks until the sample budget is met or ctx expires.
// Because the views of all in-flight queries share each chain's walk, the
// marginal cost of a concurrent query is its view maintenance only — the
// k walk-steps per sample are already paid for. A statement with ?
// placeholders is bound with opts.Args first; an EXPLAIN is answered
// without sampling (see explain), and so is a certain plan, one that
// reads no hidden column (see queryCertain).
//
// If ctx expires after at least one sample was collected, the partial
// estimate is returned with Partial set: MCMC estimates are anytime, and
// a truncated answer with wide intervals beats an error.
//
// Ranked queries (ORDER BY P DESC LIMIT k) may finish before the budget
// with EarlyStop set. Each chain hands a ranked query a look at its
// estimate at ⌈16 / chains⌉ samples and each doubling below the budget;
// once a round of looks separates the k-th tuple's confidence interval
// from the (k+1)-th's (see topKSeparated), further refinement is wasted
// walk. Looks fall on sample counts, so a seeded engine replays a stop.
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
	// a repeated spelling skips lexing, parsing, planning and binding, as
	// does a statement with placeholders repeated with arguments it was
	// bound to before. The result cache below keys on the bound
	// fingerprint rather than the SQL text, so whitespace, keyword case,
	// alias spelling, predicate-order and placeholder variants of one
	// query remain one result entry.
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
// admission, then for a certain plan one evaluation, and for any other
// write-consistent collection — over the chain pool, or on a private
// chain under a local mode — merge and rank; and the cache fill.
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
	if comp.Stmt.Certain {
		return e.queryCertain(sql, comp, opts, tr)
	}

	start := time.Now()

	// Collect until one pass is write-consistent. Chains absorb a write
	// independently, so a query in flight across one can end up with
	// some chains answering pre-write and others post-write; merging
	// those would blend two answer distributions, so such a pass is
	// discarded and re-collected (the reset views hand every retry a
	// fresh full budget). Consistency is judged by the write generations
	// every handoff carries: equal generations mean every chain answered
	// from the same world content, however many writes committed
	// meanwhile — so steady write traffic does not starve readers; only
	// the narrow mid-fan-out interleaving retries. A pass cut short is
	// not retried: it merges the newest generation only (see collectOnce).
	// The retry budget is bounded so a deadline-free reader cannot loop
	// forever: a query torn that many consecutive times is shed as
	// overloaded (an honest, retryable signal) rather than answered with
	// a blend.
	var col collection
	var epoch0 int64
	for attempt := 0; ; attempt++ {
		epoch0 = e.dataEpoch.Load()
		var err error
		// The one step in which the modes differ: where a pass's
		// samples come from.
		if e.cfg.Mode == Pooled {
			col, err = e.collectOnce(ctx, comp, opts, tr)
		} else {
			col, err = e.collectPrivate(ctx, comp, opts, tr)
		}
		if err != nil {
			e.finishTrace(tr, "error")
			return nil, err
		}
		if col.partial || !col.blended {
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
		// All chains hit their targets yet nothing was handed off —
		// cannot happen (a completed view hands off every sample), so any
		// zero here is a real bug, not a timeout.
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
		cols:       comp.Cols,
		tuples:     core.SortTupleCIs(merged.ResultsCI(math.Sqrt2*math.Erfinv(opts.Confidence)), comp.Spec),
		wire:       new(encoding),
	}
	outcome := "ok"
	switch {
	case earlyStop:
		outcome = "early_stop"
	case partial:
		outcome = "partial"
	}
	return e.publish(res, comp, opts, epoch0, start, outcome, tr), nil
}

// queryCertain answers a certain plan: one that reads no hidden column,
// so that every possible world gives it the same answer. One evaluation
// on the prototype world at the current data epoch replaces the
// sampling pass — no view is mounted, no chain is asked and no sample
// awaited — and every tuple is exact, P = 1 with the interval [1, 1].
// An exact answer is worth any budget, so it reports the budget as its
// sample count, and no chain produced it, so its Epoch is 0. The write
// lock's read side keeps the evaluation and the data epoch it is cached
// under together.
func (e *Engine) queryCertain(sql string, comp *sqlparse.Compiled, opts QueryOptions, tr *qtrace) (*Result, error) {
	start := time.Now()
	tr.span("evaluate")
	e.writeMu.RLock()
	epoch := e.dataEpoch.Load()
	tuples, err := evalCertain(e.src.WorldDB(), comp.Stmt)
	e.writeMu.RUnlock()
	if err != nil {
		e.finishTrace(tr, "error")
		e.m.failed.Inc()
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	tr.span("rank")
	res := &Result{
		SQL:        sql,
		Samples:    int64(opts.Samples),
		Chains:     e.cfg.Chains,
		Confidence: opts.Confidence,
		cols:       comp.Cols,
		tuples:     core.SortTupleCIs(tuples, comp.Spec),
		wire:       new(encoding),
	}
	return e.publish(res, comp, opts, epoch, start, "ok", tr), nil
}

// evalCertain mounts stmt on db and runs it once. Its distinct tuples
// are the answer, each in it with certainty: one sample counts every
// one, and an interval at quantile 0 is the point [1, 1].
func evalCertain(db *relstore.DB, stmt *ra.Bound) ([]core.TupleCI, error) {
	bound, err := stmt.On(db)
	if err != nil {
		return nil, err
	}
	it, _, err := ra.Stream(bound)
	if err != nil {
		return nil, err
	}
	est := core.NewEstimator()
	est.AddSampleStream(it)
	return est.ResultsCI(0), nil
}

// publish completes an evaluation that began at start: it counts the
// query, closes its trace with outcome, and caches the answer under
// data epoch epoch. Only answers whose data epoch is still current are
// cached: a consistent pass collected across a commit is a correct
// answer to return, but its epoch attribution is ambiguous, and the
// entry would either be born unreachable or risk pinning a pre-write
// answer under the post-write key.
func (e *Engine) publish(res *Result, comp *sqlparse.Compiled, opts QueryOptions, epoch int64, start time.Time, outcome string, tr *qtrace) *Result {
	res.Elapsed = time.Since(start)
	e.m.queries.Inc()
	e.m.latency.Observe(res.Elapsed.Seconds())
	res.Trace = e.finishTrace(tr, outcome)
	if !opts.NoCache && !res.Partial && e.dataEpoch.Load() == epoch {
		frozen := *res // the entry's own header, free of this request's fields
		frozen.SQL, frozen.Trace = "", nil
		var keyBuf [192]byte
		e.cache.put(appendCacheKey(keyBuf[:0], epoch, comp, opts), &frozen, time.Now())
	}
	return res
}

// maxCollectRetries bounds how many torn collection passes a query
// discards before it is shed with ErrOverloaded.
const maxCollectRetries = 4

// collection is the outcome of one sampling pass: a register-wait-merge
// over the chain pool, or one private chain's walk.
type collection struct {
	merged    *core.Estimator
	epoch     int64 // latest chain epoch merged in
	partial   bool
	closed    bool
	earlyStop bool
	// blended reports that the chains handed off this pass on different
	// sides of a write (unequal write generations), so merged holds the
	// newest generation only: a complete pass must be re-collected.
	blended bool
}

// collectOnce registers the plan on every chain, waits for the sample
// budget (or cancellation, shutdown, or ranked early stop), detaches the
// chains that did not complete, and merges the chains' handoffs. Each
// call is self-contained: its views are detached before it returns.
func (e *Engine) collectOnce(ctx context.Context, comp *sqlparse.Compiled,
	opts QueryOptions, tr *qtrace) (col collection, err error) {
	perChain := int64((opts.Samples + len(e.chains) - 1) / len(e.chains))
	// A ranked query looks at the merged sample floor and each doubling
	// of it below the budget: at look·2^j < perChain for j ≥ 0.
	var look int64
	looks := 0
	if comp.Spec.TopKByProb() {
		look = (minTopKStopSamples + int64(len(e.chains)) - 1) / int64(len(e.chains))
		looks = bits.Len64(uint64((perChain - 1) / look))
	}
	regs := make([]*registration, 0, len(e.chains))
	defer func() {
		if err != nil {
			for _, r := range regs {
				r.detach()
			}
		}
	}()
	tr.span("register")
	reused := 0
	for _, c := range e.chains {
		reg := &registration{
			c:    c,
			id:   viewID(e.nextID.Add(1)),
			look: look,
			done: make(chan handoff, looks+1),
		}
		var hit bool
		if err := c.call(ctx, func() (err error) {
			hit, err = c.register(reg, comp.Stmt, comp.Fingerprint, perChain)
			return err
		}); err != nil {
			e.m.failed.Inc()
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
	tr.attr("view_reuse", fmt.Sprintf("%d/%d", reused, len(e.chains)))

	// Each round takes the next handoff of every chain not yet closed: an
	// unranked query's one round is the closing handoffs. A ranked query
	// tests each round of looks; when the top k separates, the remaining
	// budget is handed back to the pool.
	tr.span("sample_wait")
	hs := make([]handoff, len(regs))
wait:
	for round := 1; ; round++ {
		for i, r := range regs {
			if hs[i].snap != nil && !hs[i].look {
				continue // closed
			}
			select {
			case hs[i] = <-r.done:
			case <-ctx.Done():
				// A handoff already sent wins: an expiring context must
				// not mark a complete answer partial.
				if len(r.done) == 0 {
					col.partial = true
					break wait
				}
				hs[i] = <-r.done
			}
			if hs[i].stopped {
				break wait
			}
		}
		if !slices.ContainsFunc(hs, func(h handoff) bool { return h.look }) {
			break
		}
		straddlesWrite := slices.ContainsFunc(hs, func(h handoff) bool { return h.gen != hs[0].gen })
		if !straddlesWrite && topKSeparated(hs, comp.Spec.Limit, lookZ(opts.Confidence, round, hs)) {
			col.earlyStop = true
			e.m.topkStops.Inc()
			break
		}
	}

	// Detaching hands off each live chain's estimate, so a partial answer
	// carries every sample walked. An early-stopped answer keeps the
	// looks it tested, not fresher ones a write may have reset since.
	for i, r := range regs {
		if hs[i].snap == nil || hs[i].look {
			if h := r.detach(); !col.earlyStop {
				hs[i] = h
			}
		}
	}

	// One rule for every pass: merge only the handoffs of the newest
	// write generation. A chain behind it answered from a world a write
	// has since replaced; a pass cut short drops its stale estimate, a
	// complete one is flagged blended and re-collected.
	tr.span("snapshot_merge")
	gen := int64(-1)
	for _, h := range hs {
		if h.snap != nil && h.gen > gen {
			gen = h.gen
		}
		if h.stopped {
			col.partial, col.closed = true, true
		}
	}
	col.merged = core.NewEstimator()
	for _, h := range hs {
		switch {
		case h.snap == nil:
		case h.gen != gen:
			col.blended = true
		default:
			col.merged.Merge(h.snap)
			col.epoch = max(col.epoch, h.epoch)
		}
	}
	tr.attr("samples", fmt.Sprintf("%d", col.merged.Samples()))
	if col.earlyStop {
		tr.attr("early_stop", "true")
	}
	return col, nil
}

// collectPrivate is a local mode's pass: it clones the prototype world
// and walks the clone in the calling goroutine for the whole budget —
// re-running the query per sample (core.Naive, Algorithm 3) or
// maintaining it as a view (core.Materialized, Algorithm 1) — over the
// statement the plan cache prepared. No chain outlives the pass, so a
// write needs to land on the prototype only, and no pass is blended.
// The seed is used as given: equal queries repeat the same walk.
func (e *Engine) collectPrivate(ctx context.Context, comp *sqlparse.Compiled,
	opts QueryOptions, tr *qtrace) (collection, error) {
	mode := core.Naive
	if e.cfg.Mode == PrivateMaterialized {
		mode = core.Materialized
	}
	tr.span("clone_world")
	e.writeMu.RLock() // the clone is wholly before or after any write
	log, proposer, err := e.src.NewChainWorld(0)
	e.writeMu.RUnlock()
	if err != nil {
		return collection{}, err
	}
	ev, err := core.NewEvaluator(mode, log, proposer, comp.Stmt, e.cfg.StepsPerSample, e.cfg.Seed)
	if err != nil {
		e.m.failed.Inc()
		return collection{}, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	tr.span("sample")
	if e.cfg.BurnIn > 0 {
		ev.Burn(e.cfg.BurnIn)
	}
	var col collection
	for i := 0; i < opts.Samples; i++ {
		// Cancellation and shutdown are honored between samples: one
		// sample is k walk-steps plus one (incremental) evaluation, the
		// natural granularity of the algorithm.
		if col.closed = e.Closed(); col.closed || ctx.Err() != nil {
			col.partial = true
			break
		}
		if err := ev.CollectSample(); err != nil {
			return collection{}, err
		}
	}
	col.merged, col.epoch = ev.Estimator(), log.Epoch()
	e.m.steps.Add(ev.Sampler().Steps())
	e.m.accepted.Add(ev.Sampler().Accepted())
	e.m.samples.Add(col.merged.Samples())
	tr.attr("samples", fmt.Sprintf("%d", col.merged.Samples()))
	return col, nil
}

// minTopKStopSamples is the merged sample count of a ranked query's
// first look; below it the intervals are too wide to trust anyway.
const minTopKStopSamples = 16

// lookZ is the quantile z_j at which a ranked query tests its look j
// (from 1), the round hs (see topKSeparated).
func lookZ(confidence float64, j int, hs []handoff) float64 {
	merged := core.NewEstimator()
	for _, h := range hs {
		merged.Merge(h.snap)
	}
	alpha := (1 - confidence) * 6 / (math.Pi * math.Pi * float64(j*j))
	return math.Sqrt2 * math.Erfinv(1-alpha/float64(max(merged.Len(), 1)))
}

// topKSeparated merges the handed-off estimates and reports whether the
// ranked answer is already decided: at least minTopKStopSamples merged
// samples, more than k tuples observed, and the k-th ranked tuple's
// Wilson interval entirely above the (k+1)-th's. A ranked query tests
// look j at z_j = Φ⁻¹(1 − α_j / 2m): α = 1 − confidence spent across
// looks as α_j = α·6/(π²j²), which sums to α, and split over the m
// merged tuples (Bonferroni). If every interval covers, all looks
// together stop on a wrong top k at rate at most α; but the intervals
// still count every sample as independent, with no effective n for
// autocorrelated samples yet (ROADMAP item 17).
func topKSeparated(hs []handoff, k int64, z float64) bool {
	merged := core.NewEstimator()
	for _, h := range hs {
		merged.Merge(h.snap)
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
