// Package serve is the database's request pipeline: a long-lived engine
// that owns one trained probabilistic database per process and answers
// SQL queries and writes over it — plan and result caches, admission,
// traces, logs, metrics, WAL and data epoch — on top of a sampling
// strategy (see strategy.go). The default strategy, and the rest of this
// comment, is the concurrent one: a pool of parallel MCMC chains that
// keeps walking the possible-world space.
//
// The pool generalizes the paper's materialization trick (Section 4.2)
// from one query to many: each chain owns a private clone of the world;
// every in-flight query subscribes to an incrementally maintained view on
// every chain; and one batch of k walk-steps then yields one sample for
// all of them at once, so the walk cost is amortized across the whole
// concurrent workload. Views themselves are shared too: each chain's
// registry keys physical views by the bound plan's structural fingerprint,
// so queries with equal plans — whatever their SQL spelling or per-query
// options — subscribe to one refcounted view that is maintained exactly
// once per batch, and overlapping plans share the delta operators of
// their common subtrees through the chain's ivm.Graph. Chains publish
// epoch-stamped estimator snapshots (world.Cell) after each batch, which
// is how query sessions read consistent marginals without ever blocking
// the walk. Merging the per-chain estimators is the paper's Section 5.4
// parallelization: samples from different chains are far more independent
// than consecutive samples within one.
package serve

import (
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"factordb/internal/core"
	"factordb/internal/mcmc"
	"factordb/internal/metrics"
	"factordb/internal/ra"
	"factordb/internal/sqlparse"
	"factordb/internal/world"
)

// Source provides independent world copies for the chain pool. The chain
// index lets sources shard or pre-partition if they want; clones must be
// fully independent (no shared mutable state).
type Source interface {
	NewChainWorld(chain int) (*world.ChangeLog, mcmc.Proposer, error)
}

// WritableSource is the optional Source capability behind writes under a
// private-chain Mode: a prototype world that absorbs resolved ops, so
// every world cloned afterwards carries them.
type WritableSource interface {
	ResolveExec(mut ra.Mutation) ([]world.Op, error)
	ApplyExecOps(ops []world.Op) (int64, error)
}

// Mode selects how the engine obtains a query's samples (see strategy).
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

// WALSink receives every committed op batch before it is fanned out to
// the chains — the write-ahead contract. Append must not return until
// the record is durable to the sink's configured policy; an error vetoes
// the write. The canonical implementation is store.DiskStore.
type WALSink interface {
	Append(epoch int64, ops []world.Op) error
}

// Config parameterizes an Engine. Zero values take the documented
// defaults.
type Config struct {
	// Mode selects the sampling strategy (default Pooled). The private
	// modes have no pool: Chains is 1 and WriteBurnIn is unused.
	Mode Mode
	// Chains is the number of parallel MCMC chains (default: GOMAXPROCS,
	// capped at 8).
	Chains int
	// StepsPerSample is k, the MH walk-steps between consecutive samples
	// of every registered view (default 1000).
	StepsPerSample int
	// BurnIn is the number of walk-steps each chain discards before
	// serving (default 0; the world keeps mixing across queries anyway).
	BurnIn int
	// WriteBurnIn is the number of walk-steps each chain takes after
	// applying a DML mutation before its snapshots are trusted again, so
	// the chain re-equilibrates around the mutated world (default:
	// StepsPerSample; negative disables). This is the paper's update
	// story made operational: mutate the single world, keep sampling —
	// no lineage recomputation.
	WriteBurnIn int
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

	// TraceRing is the capacity of the recent-traces ring buffer behind
	// GET /debug/traces (default 64).
	TraceRing int
	// TraceEvery, when positive, traces every n-th query even without
	// the client asking, so the debug ring has material under steady
	// load. Zero (the default) disables engine-initiated tracing; client
	// opt-in (QueryOptions.Trace) always works.
	TraceEvery int

	// Plans is the raw-SQL→compiled-plan cache shared by Query and Exec
	// (and, when the engine sits behind the factordb facade, by the
	// facade's own compile sites). Keys are exact SQL byte strings;
	// entries are plan-only and never need data invalidation. Nil gets a
	// fresh cache of sqlparse.DefaultPlanCacheSize entries.
	Plans *sqlparse.PlanCache

	// Logger receives the engine's structured log records: write-audit
	// entries and slow-query reports. Nil disables engine logging.
	Logger *slog.Logger
	// SlowQuery, when positive, is the latency threshold of the slow-query
	// log: any query at or over it emits a structured record through
	// Logger carrying its span breakdown, plan fingerprint and trace ID
	// (the engine records a private trace for every query while the
	// threshold is set, so the breakdown is on hand when one turns out
	// slow). Zero disables the slow-query log.
	SlowQuery time.Duration

	// WAL, when non-nil, durably logs every committed op batch before it
	// is applied to any chain. An Append error fails the write.
	WAL WALSink
	// InitialDataEpoch seeds the data-epoch counter, so an engine built
	// over a recovered world resumes the epoch sequence its WAL records
	// — record epochs stay strictly increasing across restarts.
	InitialDataEpoch int64
}

func (cfg Config) withDefaults() Config {
	if cfg.Mode != Pooled {
		cfg.Chains = 1
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
	if cfg.WriteBurnIn == 0 {
		cfg.WriteBurnIn = cfg.StepsPerSample
	}
	if cfg.WriteBurnIn < 0 {
		cfg.WriteBurnIn = 0
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
	if cfg.TraceRing <= 0 {
		cfg.TraceRing = 64
	}
	if cfg.Plans == nil {
		cfg.Plans = sqlparse.NewPlanCache(0)
	}
	return cfg
}

// ChainSeed derives the sampler seed of chain i from the engine seed.
// Exported so tests can reproduce a chain's walk exactly with a
// stand-alone evaluator.
func ChainSeed(base int64, chain int) int64 {
	return base + int64(chain)*104729 // spread seeds; 104729 is prime
}

// ErrClosed is returned by Query after Close.
var ErrClosed = errors.New("serve: engine is closed")

// ErrReadOnly is returned by Exec under a private-chain Mode when the
// source has no prototype world to mutate (it is not a WritableSource).
var ErrReadOnly = errors.New("serve: source has no writable prototype world")

// ErrWAL wraps a WAL append failure: the write is vetoed with every
// world untouched.
var ErrWAL = errors.New("serve: wal append")

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
	src Source
	// strat is the sampling strategy cfg.Mode selected; chains is the
	// pool it walks, empty under a private-chain mode.
	strat  strategy
	chains []*chain
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

	// writeMu serializes Exec calls: one logical mutation lands on every
	// chain before the next begins, so the clones see identical op
	// streams in identical order. Its read side guards CloneWorld.
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
func New(src Source, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	m := newEngineMetrics()
	e := &Engine{
		cfg:    cfg,
		src:    src,
		admit:  newAdmission(cfg.MaxConcurrentQueries, cfg.MaxQueuedQueries),
		cache:  newResultCache(cfg.CacheSize, cfg.CacheTTL, m.evictions),
		m:      m,
		traces: newTraceRing(cfg.TraceRing),
		tracer: &traceSampler{every: int64(cfg.TraceEvery)},
		start:  time.Now(),
	}
	e.traceSeed = uint64(e.start.UnixNano()) | 1 // W3C forbids all-zero IDs
	e.dataEpoch.Store(cfg.InitialDataEpoch)
	e.registerDerivedMetrics()
	if cfg.Mode != Pooled {
		mode := core.Naive
		if cfg.Mode == PrivateMaterialized {
			mode = core.Materialized
		}
		e.strat = private{e, mode}
		return e, nil
	}
	e.strat = pool{e}
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

// registerDerivedMetrics adds scrape-time gauges over engine state.
func (e *Engine) registerDerivedMetrics() {
	e.m.reg.NewGaugeFunc("factordb_chains", "parallel MCMC chains in the pool",
		func() float64 { return float64(e.cfg.Chains) })
	e.m.reg.NewGaugeFunc("factordb_acceptance_rate", "fraction of MH proposals accepted",
		func() float64 {
			steps := e.m.steps.Value()
			if steps == 0 {
				return 0
			}
			return float64(e.m.accepted.Value()) / float64(steps)
		})
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
				steps := c.stepsN.Load()
				var rate float64
				if steps > 0 {
					rate = float64(c.acceptedN.Load()) / float64(steps)
				}
				out = append(out, metrics.LabeledValue{
					Labels: []string{fmt.Sprintf("%d", c.id)}, Value: rate,
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
					Value:  c.stepRate.rate(c.stepsN.Load(), now),
				})
			}
			return out
		})
	e.m.reg.NewMultiGaugeFunc("factordb_view_rhat",
		"cross-chain split-R-hat of each live view's sampled answer cardinality "+
			"(near 1 = converged; NaN = insufficient data)", []string{"view"},
		func() []metrics.LabeledValue {
			return e.viewDiagnostics(splitRHat)
		})
	e.m.reg.NewMultiGaugeFunc("factordb_view_ess",
		"cross-chain effective sample size of each live view's sampled answer cardinality",
		[]string{"view"},
		func() []metrics.LabeledValue {
			return e.viewDiagnostics(effectiveSampleSize)
		})
}

// viewDiagnostics groups each live view's observation series across the
// chain pool and reduces them with diag (split-R̂ or ESS). A view only
// live on a subset of chains is diagnosed over that subset.
func (e *Engine) viewDiagnostics(diag func([][]float64) float64) []metrics.LabeledValue {
	grouped := make(map[string][][]float64)
	for _, c := range e.chains {
		for _, fp := range c.reg.liveFingerprints() {
			if s := c.reg.viewSeries(fp); s != nil {
				grouped[fp] = append(grouped[fp], s.snapshot())
			}
		}
	}
	out := make([]metrics.LabeledValue, 0, len(grouped))
	for fp, series := range grouped {
		out = append(out, metrics.LabeledValue{Labels: []string{fp}, Value: diag(series)})
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
// opt-in trace, bounded by Config.TraceRing.
func (e *Engine) Traces() []*QueryTrace { return e.traces.snapshot() }

// MintTraceID assigns the next trace serial and the W3C-shaped trace ID
// (32 lowercase hex chars) derived from it, for a trace the client did
// not supply an ID for. Every ID the database assigns comes from here.
func (e *Engine) MintTraceID() (int64, string) {
	id := e.nextID.Add(1)
	return id, fmt.Sprintf("%016x%016x", e.traceSeed, uint64(id))
}

// CloneWorld returns a fresh copy of the source's prototype world, taken
// under the write read-lock: wholly before or wholly after any write a
// private-chain mode applies to the prototype.
func (e *Engine) CloneWorld() (*world.ChangeLog, mcmc.Proposer, error) {
	e.writeMu.RLock()
	defer e.writeMu.RUnlock()
	return e.src.NewChainWorld(0)
}

// NoteBadQuery feeds the failed-query counter for queries rejected
// before reaching the engine — the facade compiles SQL up front, so its
// compile failures are recorded here rather than lost.
func (e *Engine) NoteBadQuery() { e.m.failed.Inc() }

// Chains returns the pool size (1 under a private-chain mode: each query
// walks its own).
func (e *Engine) Chains() int { return e.cfg.Chains }

// AcceptanceRate reports the pool-wide fraction of MH proposals accepted
// since the engine started (the /healthz chain-health summary).
func (e *Engine) AcceptanceRate() float64 {
	steps := e.m.steps.Value()
	if steps == 0 {
		return 0
	}
	return float64(e.m.accepted.Value()) / float64(steps)
}

// SharedViews reports the live physical-view count across the pool.
func (e *Engine) SharedViews() int64 { return e.sharedViews() }

// LiveViewChains reports on how many chains of the pool a materialized
// view with the given bound-plan fingerprint is currently live, plus the
// pool size — the EXPLAIN view-sharing decision: a query arriving now
// with that fingerprint would subscribe to those existing views instead
// of mounting fresh ones.
func (e *Engine) LiveViewChains(fp string) (live, total int) {
	for _, c := range e.chains {
		for _, f := range c.reg.liveFingerprints() {
			if f == fp {
				live++
				break
			}
		}
	}
	return live, e.cfg.Chains
}

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

// Uptime reports time since the engine started.
func (e *Engine) Uptime() time.Duration { return time.Since(e.start) }

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
