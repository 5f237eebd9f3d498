// Package serve is the database's request pipeline: a long-lived engine
// that owns one trained probabilistic database per process and answers
// SQL queries and writes over it — plan and result caches, admission,
// traces, logs, metrics, WAL, data epoch and the prototype world every
// write lands on. The modes differ in one step, how a sampling pass gets
// its samples: a local mode walks a private chain per query in the
// caller's goroutine (see collectPrivate), and the default, served mode —
// the rest of this comment — a pool of parallel MCMC chains that keeps
// walking the possible-world space.
//
// The pool generalizes the paper's materialization trick (Section 4.2)
// from one query to many: each chain owns a private clone of the world;
// every in-flight query subscribes to an incrementally maintained view on
// every chain; and one batch of k walk-steps then yields one sample for
// all of them at once, so the walk cost is amortized across the whole
// concurrent workload. Views themselves are shared too: each chain's
// registry keys physical views by the fingerprint the plan cache bound
// each statement to, so queries with equal plans — whatever their SQL
// spelling or per-query options — subscribe to one refcounted view that
// is maintained exactly once per batch; plans that differ each keep a
// private operator tree.
// A chain gives a query session its estimate as one handoff: a snapshot
// stamped with the chain's epoch and write generation, sent on the
// subscription's channel when its budget completes or the chain stops,
// and at each look of a ranked query's sample schedule, or returned by a
// mailbox call when the session detaches a query cut short. So sessions
// read consistent marginals without ever blocking the walk, and a batch
// nobody reads from copies nothing. Merging the per-chain estimators is the paper's Section 5.4
// parallelization: samples from different chains are far more
// independent than consecutive samples within one; a session merges only
// the handoffs of the newest write generation, so no answer blends the
// worlds before and after a write.
package serve

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"factordb/internal/metrics"
	"factordb/internal/sqlparse"
	"factordb/internal/world"
)

// Mode selects how the engine obtains a query's samples.
type Mode uint8

const (
	// Pooled (the default) walks a long-lived pool of chains shared by
	// every in-flight query.
	Pooled Mode = iota
	// PrivateNaive and PrivateMaterialized walk one private chain per
	// query in the caller's goroutine — Algorithms 3 and 1 of the paper.
	PrivateNaive
	PrivateMaterialized
)

// String returns the flag/DSN spelling of the mode; the pooled mode is
// what the public API calls served.
func (m Mode) String() string {
	switch m {
	case Pooled:
		return "served"
	case PrivateNaive:
		return "naive"
	case PrivateMaterialized:
		return "materialized"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// WALSink receives every committed op batch before any world takes it —
// the write-ahead contract. Append must not return until
// the record is durable to the sink's configured policy; an error vetoes
// the write. The canonical implementation is store.DiskStore.
type WALSink interface {
	Append(epoch int64, ops []world.Op) error
}

// Config parameterizes an Engine. Zero values take the documented
// defaults.
type Config struct {
	// Mode selects how queries are sampled (default Pooled). A local
	// mode (PrivateNaive, PrivateMaterialized) walks a private chain per
	// query in the caller's goroutine, and withDefaults gives it what that
	// needs whatever the caller set: no pool (Chains 1), no result cache
	// (CacheSize -1), no admission limit (MaxConcurrentQueries
	// math.MaxInt32) and no engine-initiated tracing (TraceEvery 0).
	Mode Mode
	// Chains is the number of parallel MCMC chains (default: GOMAXPROCS,
	// capped at 8).
	Chains int
	// StepsPerSample is k, the MH walk-steps between consecutive samples
	// of every registered view (default 1000). It is also the burn-in a
	// chain walks after absorbing a write, before its snapshots are
	// trusted again.
	StepsPerSample int
	// BurnIn is the number of walk-steps each chain discards before
	// serving (default 0; the world keeps mixing across queries anyway).
	// A pool started over a recovered world (InitialDataEpoch > 0) walks
	// StepsPerSample instead of 0: its chains start from evidence the
	// sampler never walked.
	BurnIn int
	// Seed derives each chain's sampler seed via ChainSeed.
	Seed int64

	// DefaultSamples is the per-query total sample budget when the request
	// does not specify one (default 128).
	DefaultSamples int
	// MaxConcurrentQueries bounds queries being evaluated at once
	// (default 16); MaxQueuedQueries bounds those waiting for a slot
	// (default 64). Beyond both, Query fails fast with ErrOverloaded.
	MaxConcurrentQueries int
	MaxQueuedQueries     int

	// CacheSize is the result-cache capacity in entries (default 128;
	// negative disables caching). CacheTTL bounds entry staleness
	// (default 1 minute): marginal estimates do not invalidate like
	// deterministic query results — more walking only refines them — so
	// a short TTL trades freshness for the repeated-dashboard-query case.
	CacheSize int
	CacheTTL  time.Duration

	// TraceEvery, when positive, traces every n-th query even without
	// the client asking, so the debug ring has material under steady
	// load. Zero (the default) disables engine-initiated tracing; client
	// opt-in (QueryOptions.Trace) always works.
	TraceEvery int

	// PlanCacheSize is the capacity, in statements, of the raw-SQL plan
	// cache every statement compiles through: Prepare, Query, Exec and
	// EXPLAIN's target (default sqlparse.DefaultPlanCacheSize). Keys are
	// exact SQL byte strings; entries hold bound plans but no world, and
	// never need data invalidation.
	PlanCacheSize int

	// Logger receives the engine's structured log records: write-audit
	// entries and slow-query reports. Nil disables engine logging.
	Logger *slog.Logger
	// SlowQuery, when positive, is the latency threshold of the slow-query
	// log: any query at or over it emits a structured record through
	// Logger carrying its span breakdown, bound fingerprint and trace ID
	// (the engine records a private trace for every query while the
	// threshold is set, so the breakdown is on hand when one turns out
	// slow). Zero disables the slow-query log.
	SlowQuery time.Duration

	// WAL, when non-nil, durably logs every committed op batch before it
	// is applied to any world. An Append error fails the write.
	WAL WALSink
	// InitialDataEpoch seeds the data-epoch counter, so an engine built
	// over a recovered world resumes the epoch sequence its WAL records
	// — record epochs stay strictly increasing across restarts.
	InitialDataEpoch int64
}

func (cfg Config) withDefaults() Config {
	if cfg.Mode != Pooled {
		cfg.Chains, cfg.CacheSize, cfg.MaxConcurrentQueries, cfg.TraceEvery = 1, -1, math.MaxInt32, 0
	}
	if cfg.Chains <= 0 {
		cfg.Chains = runtime.GOMAXPROCS(0)
		if cfg.Chains > 8 {
			cfg.Chains = 8
		}
	}
	if cfg.StepsPerSample <= 0 {
		cfg.StepsPerSample = 1000
	}
	if cfg.Mode == Pooled && cfg.InitialDataEpoch > 0 && cfg.BurnIn == 0 {
		cfg.BurnIn = cfg.StepsPerSample
	}
	if cfg.DefaultSamples <= 0 {
		cfg.DefaultSamples = 128
	}
	if cfg.MaxConcurrentQueries <= 0 {
		cfg.MaxConcurrentQueries = 16
	}
	if cfg.MaxQueuedQueries <= 0 {
		cfg.MaxQueuedQueries = 64
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 128
	}
	if cfg.CacheTTL <= 0 {
		cfg.CacheTTL = time.Minute
	}
	return cfg
}

// ChainSeed derives the sampler seed of chain i from the engine seed.
// Exported so tests can reproduce a chain's walk exactly with a
// stand-alone evaluator.
func ChainSeed(base int64, chain int) int64 {
	return base + int64(chain)*104729 // spread seeds; 104729 is prime
}

// The engine's sentinel errors carry the public API's text: the factordb
// facade re-exports them as they are (ErrWAL as ErrRecovery), so
// errors.Is holds on both sides of it.
var (
	// ErrClosed is returned by Query and Exec after Close, and by queries
	// truncated because the engine closed underneath them.
	ErrClosed = errors.New("factordb: database is closed")
	// ErrWAL marks durable-storage failures; here, a WAL append that
	// vetoed a write with every world untouched.
	ErrWAL = errors.New("factordb: durable storage")
)

// traceRingSize is the capacity of the recent-traces ring behind
// GET /debug/traces.
const traceRingSize = 64

// engineMetrics bundles the counters shared by the chains and sessions.
type engineMetrics struct {
	reg       *metrics.Registry
	steps     *metrics.Counter
	accepted  *metrics.Counter
	samples   *metrics.Counter
	queries   *metrics.Counter
	rejected  *metrics.Counter
	failed    *metrics.Counter
	hits      *metrics.Counter
	planHits  *metrics.Counter
	viewHits  *metrics.Counter
	topkStops *metrics.Counter
	snapshots *metrics.Counter
	writes    *metrics.Counter
	evictions *metrics.Counter
	latency   *metrics.Histogram

	// execLatency is the write-path twin of latency, labeled by outcome
	// (ok | noop | rejected | canceled | error) so dashboards can separate
	// committed-write latency from vetoed attempts.
	execLatency *metrics.HistogramVec

	chainSteps    *metrics.CounterVec
	chainAccepted *metrics.CounterVec
}

// Engine owns the trained world and serves concurrent queries over it.
type Engine struct {
	cfg Config
	// src is the model. Its prototype world is the engine's one evidence
	// world: writes resolve and land on it, certain plans read it, a
	// durable store checkpoints it, and the chains walk clones of it.
	// proto is the one change log over it, for the engine's life.
	src   *world.Prototype
	proto *world.ChangeLog
	// chains is the pool, empty under a local mode.
	chains []*chain
	plans  *sqlparse.PlanCache
	admit  *admission
	cache  *resultCache
	m      *engineMetrics
	traces *traceRing
	tracer *traceSampler

	start  time.Time
	nextID atomic.Int64
	// traceSeed is the per-engine half of generated trace IDs; combined
	// with the trace serial it yields 32-hex-char W3C-shaped IDs unique
	// within and (for practical purposes) across restarts.
	traceSeed uint64

	// writeMu serializes Exec calls: one logical mutation lands on the
	// prototype and every chain before the next begins, so the clones see
	// identical op streams in identical order. Its read side guards
	// prototype readers.
	writeMu sync.RWMutex
	// dataEpoch counts committed writes. It is folded into every
	// result-cache key, so each write makes all earlier entries
	// unreachable — no stale answer survives a mutation.
	dataEpoch atomic.Int64

	mu     sync.Mutex
	closed bool
}

// New builds the chain pool from src and starts the chains. The engine
// must be Closed to release the chain goroutines.
func New(src *world.Prototype, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	m := newEngineMetrics()
	e := &Engine{
		cfg:    cfg,
		src:    src,
		proto:  world.NewChangeLog(src.WorldDB()),
		plans:  sqlparse.NewSchemaPlanCache(src.WorldDB(), cfg.PlanCacheSize),
		admit:  newAdmission(cfg.MaxConcurrentQueries, cfg.MaxQueuedQueries),
		cache:  newResultCache(cfg.CacheSize, cfg.CacheTTL, m.evictions),
		m:      m,
		traces: &traceRing{buf: make([]*QueryTrace, traceRingSize)},
		tracer: &traceSampler{every: int64(cfg.TraceEvery)},
		start:  time.Now(),
	}
	e.traceSeed = uint64(e.start.UnixNano()) | 1 // W3C forbids all-zero IDs
	e.dataEpoch.Store(cfg.InitialDataEpoch)
	e.registerDerivedMetrics()
	if cfg.Mode != Pooled {
		return e, nil
	}
	// Each chain goroutine starts as soon as its world is cloned, so the
	// error path below can always stopChains: every chain in e.chains has
	// a running goroutine that will close its done channel.
	for i := 0; i < cfg.Chains; i++ {
		log, proposer, err := src.NewChainWorld(i)
		if err != nil {
			e.stopChains()
			return nil, fmt.Errorf("serve: building chain %d: %w", i, err)
		}
		c := newChain(i, cfg.StepsPerSample, log, proposer, ChainSeed(cfg.Seed, i), m)
		e.chains = append(e.chains, c)
		go c.run(cfg.BurnIn)
	}
	return e, nil
}

func newEngineMetrics() *engineMetrics {
	reg := metrics.NewRegistry()
	return &engineMetrics{
		reg:      reg,
		steps:    reg.NewCounter("factordb_walk_steps_total", "Metropolis-Hastings walk-steps across all chains"),
		accepted: reg.NewCounter("factordb_proposals_accepted_total", "accepted MH proposals across all chains"),
		samples:  reg.NewCounter("factordb_query_samples_total", "view samples collected across all chains and queries"),
		queries:  reg.NewCounter("factordb_queries_total", "queries admitted and evaluated"),
		rejected: reg.NewCounter("factordb_queries_rejected_total", "queries rejected by admission control"),
		failed:   reg.NewCounter("factordb_queries_failed_total", "queries that failed to compile or bind"),
		hits:     reg.NewCounter("factordb_cache_hits_total", "queries answered from the result cache"),
		planHits: reg.NewCounter("factordb_plan_cache_hits_total",
			"statements whose compiled plan was served from the raw-SQL plan cache"),
		viewHits: reg.NewCounter("factordb_view_cache_hits_total",
			"view registrations that reused an existing shared view (per chain)"),
		topkStops: reg.NewCounter("factordb_topk_early_stops_total",
			"ranked queries finished early because the top-k separated"),
		snapshots: reg.NewCounter("factordb_snapshots_total",
			"estimator snapshots the chains took for readers (completions, detaches, ranked queries' looks)"),
		writes: reg.NewCounter("factordb_writes_total", "DML mutations applied across all chains"),
		evictions: reg.NewCounter("factordb_cache_evictions_total",
			"result-cache entries evicted (LRU overflow or TTL expiry)"),
		latency: reg.NewHistogram("factordb_query_seconds", "per-query latency in seconds", nil),
		execLatency: reg.NewHistogramVec("factordb_exec_seconds",
			"per-write latency in seconds, labeled by outcome", nil, "outcome"),
		chainSteps: reg.NewCounterVec("factordb_chain_steps_total",
			"Metropolis-Hastings walk-steps per chain", "chain"),
		chainAccepted: reg.NewCounterVec("factordb_chain_accepted_total",
			"accepted MH proposals per chain", "chain"),
	}
}

// registerDerivedMetrics adds scrape-time gauges over engine state and
// the Go runtime.
func (e *Engine) registerDerivedMetrics() {
	metrics.RegisterGoRuntime(e.m.reg)
	e.m.reg.NewGaugeFunc("factordb_chains", "parallel MCMC chains in the pool",
		func() float64 { return float64(e.cfg.Chains) })
	e.m.reg.NewGaugeFunc("factordb_acceptance_rate", "fraction of MH proposals accepted",
		e.AcceptanceRate)
	e.m.reg.NewGaugeFunc("factordb_samples_per_second", "view samples per second since engine start",
		func() float64 {
			elapsed := time.Since(e.start).Seconds()
			if elapsed <= 0 {
				return 0
			}
			return float64(e.m.samples.Value()) / elapsed
		})
	e.m.reg.NewGaugeFunc("factordb_queries_inflight", "queries currently admitted",
		func() float64 { return float64(e.admit.inFlight()) })
	e.m.reg.NewGaugeFunc("factordb_shared_views",
		"physical materialized views currently maintained across all chains",
		func() float64 { return float64(e.sharedViews()) })
	e.m.reg.NewGaugeFunc("factordb_write_epoch",
		"data epoch: committed DML mutations since engine start",
		func() float64 { return float64(e.dataEpoch.Load()) })
	e.m.reg.NewGaugeFunc("factordb_cache_entries", "result-cache entries currently held",
		func() float64 { return float64(e.cache.len()) })
	e.m.reg.NewMultiGaugeFunc("factordb_chain_acceptance_rate",
		"fraction of MH proposals accepted, per chain", []string{"chain"},
		func() []metrics.LabeledValue {
			out := make([]metrics.LabeledValue, 0, len(e.chains))
			for _, c := range e.chains {
				out = append(out, metrics.LabeledValue{
					Labels: []string{fmt.Sprintf("%d", c.id)},
					Value:  acceptanceRate(c.stepsC.Value(), c.acceptedC.Value()),
				})
			}
			return out
		})
	e.m.reg.NewMultiGaugeFunc("factordb_chain_steps_per_second",
		"MH walk-steps per second since the previous scrape, per chain", []string{"chain"},
		func() []metrics.LabeledValue {
			now := time.Now()
			out := make([]metrics.LabeledValue, 0, len(e.chains))
			for _, c := range e.chains {
				out = append(out, metrics.LabeledValue{
					Labels: []string{fmt.Sprintf("%d", c.id)},
					Value:  c.stepRate.rate(c.stepsC.Value(), now),
				})
			}
			return out
		})
	e.m.reg.NewMultiGaugeFunc("factordb_view_rhat",
		"cross-chain split-R-hat of each live view's sampled answer cardinality "+
			"(near 1 = converged; NaN = insufficient data)", []string{"view"},
		func() []metrics.LabeledValue {
			return e.viewGauge(func(v ViewHealth) *float64 { return v.RHat })
		})
	e.m.reg.NewMultiGaugeFunc("factordb_view_ess",
		"cross-chain effective sample size of each live view's sampled answer cardinality",
		[]string{"view"},
		func() []metrics.LabeledValue {
			return e.viewGauge(func(v ViewHealth) *float64 { return v.ESS })
		})
}

// viewGauge reads one convergence diagnostic of each live view off
// viewHealth, which diagnoses a view over the chains it is live on; NaN
// stands for a diagnostic not yet defined.
func (e *Engine) viewGauge(diag func(ViewHealth) *float64) []metrics.LabeledValue {
	views := e.viewHealth()
	out := make([]metrics.LabeledValue, len(views))
	for i, v := range views {
		out[i] = metrics.LabeledValue{Labels: []string{v.Fingerprint}, Value: math.NaN()}
		if d := diag(v); d != nil {
			out[i].Value = *d
		}
	}
	return out
}

// sharedViews sums the live physical-view count over the chain pool.
// With queries in flight this is chains × distinct-plans, independent of
// how many queries subscribe to each plan.
func (e *Engine) sharedViews() int64 {
	var n int64
	for _, c := range e.chains {
		n += c.reg.sharedViews()
	}
	return n
}

// Metrics exposes the engine's metric registry (the /metrics endpoint).
func (e *Engine) Metrics() *metrics.Registry { return e.m.reg }

// Traces returns the most recent query traces, newest first — the
// engine-initiated samples (Config.TraceEvery) plus every client
// opt-in trace, bounded by a fixed ring of 64.
func (e *Engine) Traces() []*QueryTrace { return e.traces.snapshot() }

// MintTraceID assigns the next trace serial and the W3C-shaped trace ID
// (32 lowercase hex chars) derived from it, for a trace the client did
// not supply an ID for. Every ID the database assigns comes from here.
func (e *Engine) MintTraceID() (int64, string) {
	id := e.nextID.Add(1)
	return id, fmt.Sprintf("%016x%016x", e.traceSeed, uint64(id))
}

// Prepare compiles sql through the plan cache — a query, a write or an
// EXPLAIN, ? placeholders allowed — and returns its placeholder count.
// Executing it is Query or Exec with the arguments in the options: the
// statement is then found in the cache, and one with placeholders is
// parsed with new arguments and planned, or finds the plan of arguments
// it was bound to before.
func (e *Engine) Prepare(sql string) (int, error) {
	if e.Closed() {
		return 0, ErrClosed
	}
	c, _, err := e.plans.Lookup(sql, sqlparse.UsePrepare)
	if err != nil {
		e.m.failed.Inc()
		return 0, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	return c.Params, nil
}

// Chains returns the pool size (1 under a private-chain mode: each query
// walks its own).
func (e *Engine) Chains() int { return e.cfg.Chains }

// AcceptanceRate reports the pool-wide fraction of MH proposals accepted
// since the engine started (the /healthz chain-health summary and the
// factordb_acceptance_rate gauge).
func (e *Engine) AcceptanceRate() float64 {
	return acceptanceRate(e.m.steps.Value(), e.m.accepted.Value())
}

// acceptanceRate is accepted over steps, 0 before the first step.
func acceptanceRate(steps, accepted int64) float64 {
	if steps == 0 {
		return 0
	}
	return float64(accepted) / float64(steps)
}

// SharedViews reports the live physical-view count across the pool.
func (e *Engine) SharedViews() int64 { return e.sharedViews() }

// Epoch returns the highest epoch any chain has completed — a liveness
// signal for health checks. Individual chains may lag while parked idle.
func (e *Engine) Epoch() int64 {
	var max int64
	for _, c := range e.chains {
		if ep := c.curEpoch.Load(); ep > max {
			max = ep
		}
	}
	return max
}

// Close stops all chains and waits for them to park. Close is idempotent
// and safe to call concurrently with in-flight Query: sessions waiting on
// chain completion are woken by the chains' shutdown and return either
// the partial estimate collected so far or ErrClosed if nothing landed.
// Query calls issued after Close fail fast with ErrClosed.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	e.stopChains()
}

func (e *Engine) stopChains() {
	for _, c := range e.chains {
		close(c.stop)
	}
	for _, c := range e.chains {
		<-c.done
	}
}

// Closed reports whether Close has been called.
func (e *Engine) Closed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}
