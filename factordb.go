package factordb

import (
	"fmt"
	"log/slog"
	"sync"
	"time"

	"factordb/internal/exp"
	"factordb/internal/metrics"
	"factordb/internal/serve"
	"factordb/internal/store"
	"factordb/internal/world"
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

// Sentinel errors of the public API: the engine's own, re-exported. All
// are matched with errors.Is; ErrBadQuery wraps the underlying parse,
// plan, or bind message verbatim (including line/column positions from
// the SQL front end).
var (
	// ErrClosed is returned by Query after Close, and by queries
	// truncated because the database closed underneath them.
	ErrClosed = serve.ErrClosed
	// ErrBadQuery marks SQL compile and bind failures: client errors,
	// not engine faults.
	ErrBadQuery = serve.ErrBadQuery
	// ErrOverloaded is returned in served mode when admission control
	// sheds the query.
	ErrOverloaded = serve.ErrOverloaded
)

// Mode selects the evaluation strategy behind a DB: where the engine
// takes a query's samples from. Its String is the flag/DSN spelling.
type Mode = serve.Mode

const (
	// ModeNaive re-runs the full query per sampled world (Algorithm 3).
	ModeNaive = serve.PrivateNaive
	// ModeMaterialized keeps the answer as an incrementally maintained
	// view over the sampler's Δ⁻/Δ⁺ deltas (Algorithm 1) — the paper's
	// central efficiency result, and the default.
	ModeMaterialized = serve.PrivateMaterialized
	// ModeServed runs the concurrent serving engine: a pool of parallel
	// MCMC chains whose walk-steps are shared by all in-flight queries.
	ModeServed = serve.Pooled
)

// ParseMode converts the flag/DSN spelling of a mode.
func ParseMode(s string) (Mode, error) {
	for _, m := range []Mode{ModeNaive, ModeMaterialized, ModeServed} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("factordb: unknown mode %q (want naive, materialized or served)", s)
}

// options collects Open-time settings: the engine's and the store's
// configurations, written by the With* options in place. Zero values
// take the documented defaults.
type options struct {
	serve serve.Config
	store store.Options // durability (see durable.go); empty Dir disables it
	// confidence is the DB's default per-query interval mass; zero
	// leaves the engine's default.
	confidence float64
}

func defaultOptions() options {
	return options{serve: serve.Config{
		Mode:           ModeMaterialized,
		StepsPerSample: 1000,
		DefaultSamples: 128,
		Seed:           1,
	}}
}

// Option configures Open.
type Option func(*options)

// WithMode selects the evaluation strategy (default ModeMaterialized).
func WithMode(m Mode) Option { return func(o *options) { o.serve.Mode = m } }

// WithChains sets the parallel MCMC chain count in ModeServed
// (default GOMAXPROCS, capped at 8). Ignored by the local modes, which
// evaluate each query on one private chain.
func WithChains(n int) Option { return func(o *options) { o.serve.Chains = n } }

// WithSteps sets k, the Metropolis-Hastings walk-steps between
// consecutive query samples — the thinning interval of Algorithms 1
// and 3 (default 1000).
func WithSteps(k int) Option { return func(o *options) { o.serve.StepsPerSample = k } }

// WithSamples sets the default per-query sample budget (default 128);
// individual queries override it with the Samples query option.
func WithSamples(n int) Option { return func(o *options) { o.serve.DefaultSamples = n } }

// WithSeed seeds the samplers: chain i of the served pool derives its
// seed from it, and the local modes use it directly (default 1).
func WithSeed(seed int64) Option { return func(o *options) { o.serve.Seed = seed } }

// WithBurnIn discards n walk-steps per chain before sampling (default 0).
func WithBurnIn(n int) Option { return func(o *options) { o.serve.BurnIn = n } }

// WithConfidence sets the default two-sided confidence-interval mass in
// (0,1) for Rows.CI (default 0.95); queries fail with ErrBadQuery when
// it is outside that range.
func WithConfidence(c float64) Option { return func(o *options) { o.confidence = c } }

// WithCache sizes the served-mode result cache (entries; negative
// disables) and bounds entry staleness. Ignored by the local modes.
func WithCache(entries int, ttl time.Duration) Option {
	return func(o *options) { o.serve.CacheSize, o.serve.CacheTTL = entries, ttl }
}

// WithQueryLimits bounds served-mode admission: maxConcurrent queries
// evaluate at once, maxQueued wait for a slot, and anything beyond fails
// fast with ErrOverloaded. Ignored by the local modes.
func WithQueryLimits(maxConcurrent, maxQueued int) Option {
	return func(o *options) {
		o.serve.MaxConcurrentQueries, o.serve.MaxQueuedQueries = maxConcurrent, maxQueued
	}
}

// WithTraceSampling makes the served engine trace every n-th query even
// without the client asking, so the recent-traces ring has material
// under steady load (default 0: client opt-in only). Ignored by the
// local modes.
func WithTraceSampling(every int) Option { return func(o *options) { o.serve.TraceEvery = every } }

// WithPlanCache sizes the raw-SQL→compiled-plan cache every statement of
// this DB compiles through — Query, Exec, Prepare and EXPLAIN's target,
// over every transport (default 256 entries). The cache keys on the
// exact SQL byte string and holds plans (or, for a statement with ?
// placeholders, its text) only — never data — so it needs no
// invalidation on writes.
func WithPlanCache(entries int) Option { return func(o *options) { o.serve.PlanCacheSize = entries } }

// WithLogger installs a structured logger for the database's operational
// records: the slow-query log, write-audit records, and background store
// failures. All records go through log/slog, so the handler decides the
// format (JSON for machines, text for people) and the level floor. Nil
// (the default) disables structured logging.
func WithLogger(l *slog.Logger) Option {
	return func(o *options) { o.serve.Logger, o.store.Logger = l, l }
}

// WithSlowQueryLog arms the slow-query log: any query or write whose wall
// time reaches threshold emits a "slow_query" record — fingerprint, trace
// ID, outcome, and the per-span time breakdown — through the WithLogger
// handler, and its full trace is kept in the recent-traces ring so
// GET /debug/traces can be cross-referenced by trace ID. Zero (the
// default) disables it.
func WithSlowQueryLog(threshold time.Duration) Option {
	return func(o *options) { o.serve.SlowQuery = threshold }
}

// DB is a probabilistic database: one workload model opened under one
// evaluation strategy, answering SQL queries with per-tuple marginal
// probabilities and confidence intervals. It is safe for concurrent use.
// Close it to release the serving chains (served mode) and fail further
// queries with ErrClosed.
type DB struct {
	opts options
	sys  *world.Prototype
	name string

	// eng is the request pipeline — compile, caches, admission, tracing,
	// logging, metrics, the write path, EXPLAIN — under every mode; the
	// mode only selects where a query's samples come from.
	eng *serve.Engine

	// store is the durable snapshot+WAL backend (nil without WithDataDir);
	// startupTrace is the recovery trace assembled from it at Open.
	store        *store.DiskStore
	startupTrace *QueryTrace

	start     time.Time
	closeOnce sync.Once
}

// Open builds (and, for the NER workload, trains) the model, then stands
// up the selected evaluation strategy over it, with WithDataDir over the
// world the directory recovered. Expect Open to dominate startup cost;
// the returned DB answers queries until Close.
func Open(model Model, opts ...Option) (*DB, error) {
	o := defaultOptions()
	for _, f := range opts {
		f(&o)
	}
	cfg := o.serve
	if cfg.StepsPerSample <= 0 {
		return nil, fmt.Errorf("factordb: steps per sample must be positive, got %d", cfg.StepsPerSample)
	}
	if cfg.DefaultSamples <= 0 {
		return nil, fmt.Errorf("factordb: sample budget must be positive, got %d", cfg.DefaultSamples)
	}
	// Recovery comes first, so the model is built over the world it will
	// serve and every chain cloned below carries post-replay evidence.
	start := time.Now()
	st, recovered, err := openDurability(o.store)
	if err != nil {
		return nil, err
	}
	sys, err := model.build(recovered)
	if err == nil && st != nil {
		err = adoptDurability(st, o.store.Dir, sys, model.modelName())
	}
	if err != nil {
		if st != nil {
			st.Close()
		}
		return nil, err
	}
	db := &DB{opts: o, sys: sys, name: model.modelName(), start: start, store: st}
	if st != nil {
		cfg.WAL = st
		cfg.InitialDataEpoch = st.Recovery().Epoch
	}
	// The engine owns the per-mode policy (serve.Config.Mode): a local
	// mode drops the pool, cache, admission and trace-sampling options,
	// and a recovered pool burns in.
	db.eng, err = serve.New(sys, cfg)
	if err != nil {
		if st != nil {
			st.Close()
		}
		return nil, err
	}
	if st != nil {
		db.startupTrace = db.recoveryTrace(st.Recovery())
		st.RegisterMetrics(db.eng.Metrics())
	}
	return db, nil
}

// Mode returns the evaluation strategy the DB was opened with.
func (db *DB) Mode() Mode { return db.opts.serve.Mode }

// Describe returns a one-line summary of the opened database.
func (db *DB) Describe() string {
	return fmt.Sprintf("%s [%s]", db.sys.Describe(), db.Mode())
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
