package factordb

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"time"

	"factordb/internal/exp"
	"factordb/internal/metrics"
	"factordb/internal/serve"
	"factordb/internal/sqlparse"
	"factordb/internal/store"
)

// The paper's evaluation queries (Section 5), ready to pass to DB.Query
// against the NER workload, plus the entity-resolution pair query for the
// coref workload.
const (
	Query1       = exp.Query1       // persons: SELECT STRING FROM TOKEN WHERE LABEL='B-PER'
	Query2       = exp.Query2       // global person count (aggregate)
	Query3       = exp.Query3       // docs with #PER = #ORG (correlated subqueries)
	Query4       = exp.Query4       // persons co-occurring with Boston/B-ORG (join)
	Query4Ranked = exp.Query4Ranked // Query 4 top-10 by marginal (ORDER BY P DESC LIMIT 10)
	PairQuery    = exp.PairQuery    // coref: same-entity probability per mention pair
)

// Sentinel errors of the public API. All are matched with errors.Is;
// ErrBadQuery wraps the underlying parse, plan, or bind message verbatim
// (including line/column positions from the SQL front end).
var (
	// ErrClosed is returned by Query after Close, and by queries
	// truncated because the database closed underneath them.
	ErrClosed = errors.New("factordb: database is closed")
	// ErrBadQuery marks SQL compile and bind failures: client errors,
	// not engine faults.
	ErrBadQuery = errors.New("factordb: bad query")
	// ErrOverloaded is returned in served mode when admission control
	// sheds the query.
	ErrOverloaded = errors.New("factordb: overloaded")
)

// Mode selects the evaluation strategy behind a DB.
type Mode uint8

const (
	// ModeNaive re-runs the full query per sampled world (Algorithm 3).
	ModeNaive Mode = iota
	// ModeMaterialized keeps the answer as an incrementally maintained
	// view over the sampler's Δ⁻/Δ⁺ deltas (Algorithm 1) — the paper's
	// central efficiency result, and the default.
	ModeMaterialized
	// ModeServed runs the concurrent serving engine: a pool of parallel
	// MCMC chains whose walk-steps are shared by all in-flight queries.
	ModeServed
)

func (m Mode) String() string {
	switch m {
	case ModeNaive:
		return "naive"
	case ModeMaterialized:
		return "materialized"
	case ModeServed:
		return "served"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// ParseMode converts the flag/DSN spelling of a mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "naive":
		return ModeNaive, nil
	case "materialized":
		return ModeMaterialized, nil
	case "served":
		return ModeServed, nil
	}
	return 0, fmt.Errorf("factordb: unknown mode %q (want naive, materialized or served)", s)
}

// options collects Open-time settings; zero values take the documented
// defaults.
type options struct {
	mode          Mode
	chains        int
	steps         int
	samples       int
	seed          int64
	burnIn        int
	confidence    float64
	cacheSize     int
	cacheTTL      time.Duration
	maxConcurrent int
	maxQueued     int
	traceEvery    int
	planCacheSize int

	// Structured logging and the slow-query log; nil logger disables
	// records, zero slowQuery disables the threshold.
	logger    *slog.Logger
	slowQuery time.Duration

	// Durability (see durable.go); empty dataDir disables it.
	dataDir         string
	fsync           FsyncPolicy
	checkpointOps   int64
	checkpointBytes int64
}

func defaultOptions() options {
	return options{
		mode:       ModeMaterialized,
		steps:      1000,
		samples:    128,
		seed:       1,
		confidence: 0.95,
	}
}

// Option configures Open.
type Option func(*options)

// WithMode selects the evaluation strategy (default ModeMaterialized).
func WithMode(m Mode) Option { return func(o *options) { o.mode = m } }

// WithChains sets the parallel MCMC chain count in ModeServed
// (default GOMAXPROCS, capped at 8). Ignored by the local modes, which
// evaluate each query on one private chain.
func WithChains(n int) Option { return func(o *options) { o.chains = n } }

// WithSteps sets k, the Metropolis-Hastings walk-steps between
// consecutive query samples — the thinning interval of Algorithms 1
// and 3 (default 1000).
func WithSteps(k int) Option { return func(o *options) { o.steps = k } }

// WithSamples sets the default per-query sample budget (default 128);
// individual queries override it with the Samples query option.
func WithSamples(n int) Option { return func(o *options) { o.samples = n } }

// WithSeed seeds the samplers: chain i of the served pool derives its
// seed from it, and the local modes use it directly (default 1).
func WithSeed(seed int64) Option { return func(o *options) { o.seed = seed } }

// WithBurnIn discards n walk-steps per chain before sampling (default 0).
func WithBurnIn(n int) Option { return func(o *options) { o.burnIn = n } }

// WithConfidence sets the default two-sided confidence-interval mass in
// (0,1) for Rows.CI (default 0.95).
func WithConfidence(c float64) Option { return func(o *options) { o.confidence = c } }

// WithCache sizes the served-mode result cache (entries; negative
// disables) and bounds entry staleness. Ignored by the local modes.
func WithCache(entries int, ttl time.Duration) Option {
	return func(o *options) { o.cacheSize, o.cacheTTL = entries, ttl }
}

// WithQueryLimits bounds served-mode admission: maxConcurrent queries
// evaluate at once, maxQueued wait for a slot, and anything beyond fails
// fast with ErrOverloaded. Ignored by the local modes.
func WithQueryLimits(maxConcurrent, maxQueued int) Option {
	return func(o *options) { o.maxConcurrent, o.maxQueued = maxConcurrent, maxQueued }
}

// WithTraceSampling makes the served engine trace every n-th query even
// without the client asking, so the recent-traces ring has material
// under steady load (default 0: client opt-in only). Ignored by the
// local modes.
func WithTraceSampling(every int) Option { return func(o *options) { o.traceEvery = every } }

// WithPlanCache sizes the raw-SQL→compiled-plan cache shared by every
// entry point of this DB — Query, Exec, Prepare, EXPLAIN, and in served
// mode the engine itself (default 256 entries). The cache keys on the
// exact SQL byte string and holds plans only — never data — so it needs
// no invalidation on writes.
func WithPlanCache(entries int) Option { return func(o *options) { o.planCacheSize = entries } }

// WithLogger installs a structured logger for the database's operational
// records: the slow-query log, write-audit records, and background store
// failures. All records go through log/slog, so the handler decides the
// format (JSON for machines, text for people) and the level floor. Nil
// (the default) disables structured logging.
func WithLogger(l *slog.Logger) Option { return func(o *options) { o.logger = l } }

// WithSlowQueryLog arms the slow-query log: any query or write whose wall
// time reaches threshold emits a "slow_query" record — fingerprint, trace
// ID, outcome, and the per-span time breakdown — through the WithLogger
// handler, and its full trace is kept in the recent-traces ring so
// GET /debug/traces can be cross-referenced by trace ID. Zero (the
// default) disables it.
func WithSlowQueryLog(threshold time.Duration) Option {
	return func(o *options) { o.slowQuery = threshold }
}

// DB is a probabilistic database: one workload model opened under one
// evaluation strategy, answering SQL queries with per-tuple marginal
// probabilities and confidence intervals. It is safe for concurrent use.
// Close it to release the serving chains (served mode) and fail further
// queries with ErrClosed.
type DB struct {
	opts options
	sys  system
	name string

	// eng is the request pipeline — compile, caches, admission, tracing,
	// logging, metrics, the write path — under every mode; the mode only
	// selects the sampling strategy Open configures it with.
	eng *serve.Engine

	// plans memoizes compiled statements by their exact SQL byte string.
	// One instance serves every entry point: the facade's Prepare/EXPLAIN
	// paths and the engine's own compile sites, so a statement warmed
	// anywhere hits everywhere.
	plans *sqlparse.PlanCache

	// store is the durable snapshot+WAL backend (nil without WithDataDir);
	// startupTrace is the recovery trace assembled from it at Open.
	store        store.Storage
	startupTrace *QueryTrace

	start     time.Time
	closeOnce sync.Once
}

// Open builds (and, for the NER workload, trains) the model, then stands
// up the selected evaluation strategy over it. Expect Open to dominate
// startup cost; the returned DB answers queries until Close.
func Open(model Model, opts ...Option) (*DB, error) {
	o := defaultOptions()
	for _, f := range opts {
		f(&o)
	}
	if o.steps <= 0 {
		return nil, fmt.Errorf("factordb: steps per sample must be positive, got %d", o.steps)
	}
	if o.samples <= 0 {
		return nil, fmt.Errorf("factordb: sample budget must be positive, got %d", o.samples)
	}
	if o.confidence <= 0 || o.confidence >= 1 {
		return nil, fmt.Errorf("factordb: confidence %v outside (0,1)", o.confidence)
	}
	sys, err := model.build()
	if err != nil {
		return nil, err
	}
	db := &DB{opts: o, sys: sys, name: model.modelName(), start: time.Now()}
	db.plans = sqlparse.NewPlanCache(o.planCacheSize)

	// Recovery happens before any chain is cloned: openDurability swaps
	// the recovered world into the system, so every world cloned below
	// carries post-replay evidence.
	st, err := openDurability(o, sys, db.name)
	if err != nil {
		return nil, err
	}
	db.store = st
	cfg := serve.Config{
		StepsPerSample: o.steps,
		BurnIn:         o.burnIn,
		Seed:           o.seed,
		DefaultSamples: o.samples,
		Plans:          db.plans,
		Logger:         o.logger,
		SlowQuery:      o.slowQuery,
	}
	if st != nil {
		cfg.WAL = st
		cfg.InitialDataEpoch = st.Recovery().Epoch
	}
	// The one place the modes differ: which sampling strategy the engine
	// runs, and which options reach it. The local modes evaluate every
	// query on a private chain in its caller's goroutine, so the pool,
	// cache, admission and trace-sampling options are simply not passed
	// on: no result cache, no admission limit, client-opted traces only.
	switch o.mode {
	case ModeServed:
		cfg.Chains = o.chains
		cfg.MaxConcurrentQueries, cfg.MaxQueuedQueries = o.maxConcurrent, o.maxQueued
		cfg.CacheSize, cfg.CacheTTL = o.cacheSize, o.cacheTTL
		cfg.TraceEvery = o.traceEvery
		// A recovered world needs re-equilibration: the chains start from
		// evidence the sampler never walked, so give them one sampling
		// interval of burn-in unless the caller chose a budget explicitly.
		if cfg.InitialDataEpoch > 0 && o.burnIn == 0 {
			cfg.BurnIn = o.steps
		}
	default:
		cfg.Mode = serve.PrivateNaive
		if o.mode == ModeMaterialized {
			cfg.Mode = serve.PrivateMaterialized
		}
		cfg.CacheSize = -1
		cfg.MaxConcurrentQueries = math.MaxInt32
	}
	db.eng, err = serve.New(sys, cfg)
	if err != nil {
		if st != nil {
			st.Close()
		}
		return nil, err
	}
	if st != nil {
		db.startupTrace = db.recoveryTrace(st.Recovery())
		registerStoreMetrics(st, db.eng.Metrics())
	}
	return db, nil
}

// Mode returns the evaluation strategy the DB was opened with.
func (db *DB) Mode() Mode { return db.opts.mode }

// Describe returns a one-line summary of the opened database.
func (db *DB) Describe() string {
	return fmt.Sprintf("%s [%s]", db.sys.Describe(), db.opts.mode)
}

// Chains reports the parallel chain count: the pool size in served mode,
// one otherwise (each local query walks a private chain).
func (db *DB) Chains() int { return db.eng.Chains() }

// Metrics exposes the DB's metric registry (the /metrics endpoint).
func (db *DB) Metrics() *metrics.Registry { return db.eng.Metrics() }

// Close releases the database. It is idempotent and safe to call
// concurrently with in-flight queries, which return promptly with either
// their partial estimate or ErrClosed.
func (db *DB) Close() (err error) {
	db.closeOnce.Do(func() {
		// Engine first: stopping the chains ends the write stream, so the
		// store's final flush below covers every committed record.
		db.eng.Close()
		if db.store != nil {
			err = db.store.Close()
		}
	})
	return err
}
