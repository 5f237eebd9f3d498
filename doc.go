// Package factordb reproduces and extends "Scalable Probabilistic
// Databases with Factor Graphs and MCMC" (Wick, McCallum, Miklau;
// PVLDB 2010, arXiv:1005.1934): a probabilistic database whose relational
// store always holds a single possible world, with uncertainty encoded by
// an external factor graph and recovered through Metropolis-Hastings
// sampling. Query answers are maintained incrementally across sampled
// worlds with materialized-view maintenance, which is orders of magnitude
// faster than re-running queries per world.
//
// # Public API
//
// The package root is the facade every caller programs against. Open a
// workload model under an evaluation strategy, pose SQL, and stream
// answer tuples with their marginal probabilities and confidence
// intervals:
//
//	db, err := factordb.Open(
//	    factordb.NER(factordb.NERConfig{Tokens: 20000}),
//	    factordb.WithMode(factordb.ModeMaterialized),
//	)
//	...
//	rows, err := db.Query(ctx, factordb.Query1)
//	...
//	for rows.Next() {
//	    var s string
//	    rows.Scan(&s)
//	    lo, hi := rows.CI()
//	    fmt.Println(s, rows.Prob(), lo, hi)
//	}
//
// Models: NER (the paper's skip-chain named-entity workload) and Coref
// (entity resolution). Modes: ModeNaive re-runs the query per sample
// (Algorithm 3), ModeMaterialized maintains the answer incrementally
// from the sampler's deltas (Algorithm 1, the paper's central result),
// and ModeServed runs a pool of parallel MCMC chains whose walk-steps
// are shared by all in-flight queries. One engine, one API, three
// strategies — the paper's equivalence made a contract: every mode
// estimates the same answer distribution.
//
// The SQL dialect covers the paper's evaluation queries and ranked
// retrieval: SELECT [DISTINCT] with comparisons, joins (comma or
// JOIN ... ON — pure syntax, both lower to the same plan), IN lists,
// IN/EXISTS subquery predicates and correlated COUNT(*)-subquery
// equalities in WHERE; COUNT/SUM/AVG/MIN/MAX with GROUP BY and HAVING;
// ORDER BY / LIMIT; INSERT/UPDATE/DELETE; ? placeholders; and EXPLAIN.
// The pseudo-column P names a tuple's estimated marginal probability,
// so MystiQ-style top-k is first-class SQL:
//
//	rows, err := db.Query(ctx, factordb.Query4Ranked) // ... ORDER BY P DESC LIMIT 10
//
// Ranking happens inside the engine: results arrive ordered and
// truncated, and the served mode stops refining tuples that can no
// longer enter the top k once the confidence intervals separate.
// ORDER BY over ordinary columns with a LIMIT instead ranks inside
// every sampled world (maintained incrementally), making a tuple's
// marginal its probability of ranking in the top k of a possible world.
//
// The sibling package factordb/sqldriver registers the same facade with
// database/sql under the driver name "factordb":
//
//	db, err := sql.Open("factordb", "ner?tokens=20000&mode=materialized&samples=100")
//	rows, err := db.QueryContext(ctx, "SELECT STRING FROM TOKEN WHERE LABEL='B-PER'")
//
// with the tuple marginal and confidence interval surfaced as trailing
// P, CI_LO and CI_HI columns.
//
// DB.Handler exposes the HTTP transport (POST /query, POST /exec,
// GET /healthz, GET /metrics, GET /statusz) that cmd/factordbd serves.
// DB.DebugHandler serves the operator-only endpoints (net/http/pprof and
// GET /debug/traces); they are never mounted on the public handler.
//
// # Observability: traces and sampler health
//
// Every query can carry a trace: request it per query with the Trace
// option (or "trace": true over HTTP), or sample every n-th query into a
// ring with WithTraceSampling. Read it from Rows.Trace, the "trace"
// block of the /query response, DB.RecentTraces, or GET /debug/traces.
//
// The trace contract, the same for queries, writes (ExecTrace, "trace":
// true on POST /exec) and the one-shot recovery trace that WithDataDir
// publishes as Status.StartupTrace: spans are contiguous — each span's
// StartNS equals the previous span's StartNS+DurNS, and the durations
// plus the first span's lead-in sum exactly to WallNS, so no latency is
// unaccounted for. A span whose stage was skipped is omitted rather than
// emitted with zero duration, and new spans may be added (preserving
// contiguity): key on names, not positions. Every mode runs the same
// request pipeline and differs only in the sampling strategy under it —
// "pool" is ModeServed's shared chain pool, "private" the local modes'
// chain per query — so there is one glossary, which TestSpanGlossary
// pins against the code:
//
//	kind      span                emitted by  what is being timed
//	query     compile             all         SQL to plan (attr plan_cache: hit, miss, prebound)
//	query     cache_probe         all         result-cache lookup (attr result); not under NoCache
//	query     admission_wait      all         the admission queue queries and writes share
//	query     register            pool        view mount or registry hit per chain (attr view_reuse)
//	query     sample_wait         pool        the chains walking until the budget is met
//	query     snapshot_merge      pool        merging the per-chain estimators (attr samples)
//	query     clone_world         private     cloning the prototype world
//	query     sample              private     burn-in plus the whole sample budget (attr samples)
//	query     rank                all         ORDER BY / LIMIT over the merged estimate
//	exec      compile             all         SQL to mutation (attr plan_cache)
//	exec      admission_wait      all         as for queries
//	exec      resolve             all         predicate to row-level ops, on one world
//	exec      wal_append          all         the durable log append (WithDataDir only)
//	exec      fsync               all         the append's sync share, carved out once the WAL reports it
//	exec      fanout              pool        ops delivered until every chain has applied them
//	exec      burn_in             pool        the slowest chain's re-equilibration walk
//	exec      delta_fold          pool        folding the write's delta into every live view
//	exec      republish           pool        reset estimators republished to readers
//	exec      apply               private     mutating the prototype world
//	exec      cache_invalidate    all         the data-epoch bump
//	recovery  snapshot_load       all         attr snapshot_epoch
//	recovery  wal_replay          all         attrs replayed_records, replayed_ops, epoch
//	recovery  torn_tail_truncate  all         only after a crash left a torn record
//
//	kind      outcomes
//	query     ok cached early_stop partial error
//	exec      ok noop rejected canceled error
//	recovery  ok fresh
//
// ("noop" matched no rows and committed nothing; "fresh" is the first
// open of a data directory.) Tracing disabled costs single-digit
// nanoseconds per query (BenchmarkTraceOverhead pins it).
//
// Every trace carries a TraceID: the 32-hex trace-id of a W3C
// traceparent, either propagated by the caller (TraceID/ExecTraceID
// options; the HTTP transport reads the request's traceparent header and
// echoes the resolved ID on the response) or assigned by the database.
//
// # Structured logging
//
// WithLogger installs a log/slog logger for the operational record
// streams; record shapes are a stable contract. WithSlowQueryLog arms
// the slow-query log: any query or write at or over the threshold emits
// a "slow_query" record — trace_id, kind, sql, fingerprint, outcome,
// wall_ns, threshold_ns, and a span_ns group with durations summed per
// span name — and its trace is kept in the ring so the trace_id resolves
// on GET /debug/traces even when the client never opted into tracing.
// Every Exec attempt additionally emits a "write.audit" record — outcome,
// sql, trace_id (when traced), epoch, and for an attempt that produced a
// result rows_affected and elapsed (a duration) — the same keys under
// every mode; failures audit at Warn, commits at Info. cmd/factordbd wires both through its
// -log-format, -log-level and -slow-query flags, and
// cmd/factorload -check-slow-log validates a captured JSON log against
// this contract.
//
// EXPLAIN ANALYZE SELECT executes the pushed-down streaming plan once
// per chain with per-operator instrumentation and returns the annotated
// tree (actual vs estimated rows, per-operator self time, pushdown
// residue) as PLAN rows, like EXPLAIN. DML cannot be analyzed — a write
// cannot be executed speculatively. The uninstrumented path stays within
// 2% of its cost (TestAnalyzeDisabledOverhead gates it in CI).
//
// Sampler health is exported alongside: per-chain acceptance rate and
// steps/sec, and — per live shared view — the cross-chain split-R̂ and
// effective sample size of the view's answer-cardinality stream, on
// GET /metrics (factordb_chain_*, factordb_view_rhat, factordb_view_ess)
// and GET /statusz. cmd/factorload replays a mixed workload and records
// these into a BENCH_<name>.json trajectory.
//
// # Write path: DML and the data epoch
//
// The database is writable through DB.Exec, database/sql's ExecContext,
// and POST /exec — the paper's update model made operational. Because
// the store holds a single possible world, a write is a plain mutation
// of that world: the samplers keep walking and the marginals
// re-equilibrate, with none of the lineage recomputation tuple-level
// probabilistic databases pay on update. The DML grammar (literals only
// on the write path; WHERE is a conjunction of simple comparisons):
//
//	INSERT INTO t [(col, ...)] VALUES (lit, ...) [, (lit, ...)]...
//	UPDATE t [alias] SET col = lit [, col = lit]... [WHERE cond AND ...]
//	DELETE FROM t [alias] [WHERE cond AND ...]
//
// An INSERT column list must cover the whole schema (the store has no
// defaults). The durable write workload is evidence: assignments to a
// hidden (sampled) column are overwritten as the sampler revisits it,
// and rows inserted into a sampled relation carry their hidden field as
// fixed evidence. UPDATE/DELETE predicates are resolved once against one
// world and the resulting row-level ops are replayed on every chain, so
// the chains' worlds never diverge. Resolution evaluates the predicate
// inside a storage scan, which runs in ascending RowID order, as does the
// op list; a top-level column = constant conjunct is tested on the
// column vector before a row is materialized. Applied ops go through the
// same row-keyed change log as the sampler's flips (see "The walk step"
// below), so a row updated and updated back, or inserted and deleted,
// within one batch nets to nothing.
//
// The data-epoch contract sits next to the plan-IR contract above: every
// committed write bumps the database's data epoch (ExecResult.Epoch,
// DB.WriteEpoch, the factordb_write_epoch gauge, /healthz write_epoch),
// and the served-mode result cache keys on (data epoch, plan
// fingerprint, result spec, samples, confidence). A cached answer
// therefore can never survive a write — whatever spelling of the query
// produced it — while spelling variants keep sharing entries within an
// epoch.
//
// Below the result cache sits the raw-SQL plan cache: Compile results
// keyed on the exact statement bytes. The keying rule is deliberate —
// no normalization of any kind, so two spellings that differ by one
// whitespace byte occupy two entries, and a repeated spelling skips
// lexing, parsing and planning outright. Plans are immutable and hold
// no data references, so the plan cache needs no epoch invalidation:
// entries are evicted FIFO (WithPlanCache sizes the cache), and
// statements that fail to compile are never cached. Prepare keeps a
// parsed AST instead: Stmt.Query/Exec bind ? arguments as literals
// into a fresh copy and re-plan, which re-runs canonicalization, so a
// bound statement fingerprints — and caches — identically to the same
// statement with its literals spelled inline.
//
// # EXPLAIN
//
// EXPLAIN <stmt> compiles its target through the shared plan cache
// exactly as if the statement had been issued directly (an EXPLAIN
// warms the cache for the real query) and answers without sampling.
// The contract, identical through the facade, database/sql, POST
// /query and the CLI: a single PLAN column of strings, one plan line
// per row — the rendered operator tree as bound (with the projections
// column pruning put under join inputs, and a "column pruning:" line
// when it put any), the plan fingerprint, the result spec, and whether
// the plan cache already held the entry. Chains absorb a write at an epoch boundary, walk a configurable
// burn-in, and reset the estimators of live views; a query in flight
// across a write re-collects rather than blend pre- and post-write
// samples, and queries issued after Exec returns never observe
// pre-write state.
//
// # Durability: snapshots, the WAL, and recovery
//
// WithDataDir(dir) makes the write path durable (cmd/factordbd:
// -data-dir). The store persists exactly the evidence — the prototype
// possible world and committed mutations — because everything else
// (graph, weights, chains) is a deterministic function of the workload
// config and is rebuilt on open. Two on-disk artifacts live in dir:
//
//   - snap-<epoch>.snap: a checkpoint of the world as of a data epoch.
//     Format "snap1:": magic, big-endian epoch, gob world dump, CRC-32
//     trailer; written to a temp file and atomically renamed.
//   - wal.log: an append-only log of committed op batches. Format
//     "wal1:": magic, then length-prefixed records (u32 length, u32
//     CRC-32 (IEEE), payload of epoch + resolved row-level ops). Both
//     prefixes are versioned; incompatible changes bump them, so an old
//     binary refuses a new directory rather than misreading it.
//
// The commit rule: Exec appends the batch to the WAL (honoring the
// fsync policy — FsyncAlways syncs per append, FsyncInterval (default)
// syncs on a ~100ms background ticker, FsyncNever leaves it to the OS)
// before any chain applies it. Recovery loads the newest valid snapshot
// and replays only records with epoch greater than the snapshot epoch —
// replay is idempotent by construction because ops are row-level
// assignments keyed by epoch, never read-modify-write. The first
// invalid record (torn frame, short payload, CRC mismatch) ends the
// log: the tail beyond it is truncated, reported as torn_tail in
// DurabilityStatus, and never replayed. Background checkpointing
// (WithCheckpointEvery) rewrites the snapshot and drops the covered WAL
// prefix. After recovery the restored write epoch is observable at
// DB.WriteEpoch and /healthz write_epoch, and a served engine walks a
// burn-in before answering so marginals re-equilibrate around the
// recovered evidence. Coref materializes worlds per chain and has no
// durable prototype world; WithDataDir on it fails with ErrRecovery.
//
// # Plan IR: canonical form and fingerprints
//
// Every query, whatever its entry path (DB.Query, database/sql, HTTP),
// lowers to the same canonical relational-algebra plan: the sqlparse
// planner runs ra.Canonicalize on its output, which renames table
// aliases positionally (and drops provably redundant qualifiers in
// single-table plans), flattens and sorts AND/OR conjunctions, orients
// comparisons (literals on the right), folds constant subexpressions,
// and drops TRUE selections — without ever changing answer semantics or
// output column names. Spelling variants of one query (whitespace,
// keyword case, alias names, predicate order, flipped comparisons) are
// therefore one plan.
//
// Two fingerprints key the layers above:
//
//   - ra.PlanFingerprint (prefix "qfp1:") hashes the canonical logical
//     plan. The served-mode result cache keys on (plan fingerprint,
//     result spec, samples, confidence) instead of the SQL text, so
//     textual variants share one cache entry.
//   - ra.Bound.Fingerprint (prefix "bfp1:") hashes the catalog-bound
//     structure of every plan subtree — column positions rather than
//     names, no aliases, no output names — of the tree ra.Bind returns,
//     which is the column-pruned one. The serving engine's per-chain
//     view registries key physical materialized views on it: concurrent
//     queries with equal plans share one incrementally maintained view
//     per chain (refcounted, maintained once per walk batch regardless
//     of subscriber count), and plans that merely overlap share the
//     delta operators of their common subtrees. Per-query options that
//     do not change the answer distribution — sample budget, confidence
//     level — are deliberately excluded from view identity and applied
//     at estimator-merge time.
//
// Stability: within one version prefix the encodings never change across
// releases; incompatible changes bump the prefix ("qfp2:", "bfp2:"), so
// stale keys miss rather than collide. The golden test
// internal/sqlparse/testdata/fingerprints.golden pins the fingerprints
// of the paper's queries to enforce this.
//
// # Execution: the streaming iterator contract
//
// A query runs as compile → bind and prune → evaluate. ra.Bind resolves
// columns and then narrows the tree: a top-down pass finds which output
// columns of each node anything above it reads and projects every join
// input onto the read ones (join keys, residual filter, ancestors'
// references). The root, Distinct, Union/Diff and OrderLimit read every
// column of their children; nothing is inserted where nothing would be
// dropped, so a plan without a join binds as written. Every consumer —
// ra.Stream, the ivm compiler, EXPLAIN, Bound.Fingerprint — sees that
// one narrow tree; a maintained view therefore keeps a pruned join side
// as (read columns, multiplicity) rows, not as base tuples.
//
// Bound plans execute through ra.Stream, which compiles the tree (after
// non-mutating predicate pushdown) into a single re-runnable iterator:
// a closure that pushes (tuple, count) pairs to a yield callback. The
// contract every operator and consumer observes:
//
//   - Compile once, run many: invoking the iterator re-evaluates the
//     plan against the current world. All per-run state lives inside
//     the invocation, so one compiled pipeline serves every MCMC
//     sample.
//   - Ownership: Stream reports whether yielded tuples are owned
//     (stable — safe to retain) or scratch buffers invalid after the
//     yield returns. Retaining consumers must clone unowned tuples;
//     they need to do so only on first insertion. Base scans are
//     scratch: the store keeps columns and fills one tuple per row.
//   - A yield may be called several times for one logical tuple
//     (streams are bags, split emissions are legal); consumers fold
//     counts. Returning false from yield stops the run early, and the
//     iterator remains reusable afterwards.
//
// The incremental-maintenance layer (internal/ivm) uses the same shape
// in push form — delta operators emit signed (tuple, count) pairs
// downstream — and the same ownership rule, so eval and maintenance
// share key encodings and allocation discipline.
//
// # The walk step: proposals, scoring, the Δ log
//
// One Metropolis-Hastings step allocates nothing, a real flip included
// (pinned by TestWalkAllocBudget and
// internal/mcmc/testdata/alloc_budget.txt). Five contracts make that so:
//
//   - mcmc.Proposer is two-phase. Propose(rng) hypothesizes a
//     modification, returns its log score delta and log proposal ratio
//     by value, and remembers the move as the proposer's pending move
//     without touching the world. Accept() commits the pending move of
//     the most recent Propose; the sampler calls it at most once, and
//     only for an accepted proposal. A pending no-op commits nothing.
//     Wrapping proposers forward Accept to the proposer that drew the
//     pending move. learn.Proposer (ProposeRank + Accept) is the same
//     protocol for SampleRank.
//   - Scoring is array-indexed. learn.Weights, the sparse map, is the
//     training representation; ie.Model.Compile lays the weights out as
//     one dense table per factor template (emission [vocab×labels],
//     capitalization, bias, transition [labels×labels], skip [2]).
//     Scores sum the same factors in the same order as before. Scoring
//     recompiles when Weights.Version has moved; compile explicitly
//     before sharing a model between goroutines (exp.BuildNER does).
//   - The store is columnar and its worlds share vectors copy-on-write
//     (internal/relstore): a flip is Relation.SetCol, a store into the
//     one column vector the chain owns, reached through a world.Field
//     handle resolved once at bind time. No row is copied.
//   - world.ChangeLog nets by row identity. Per relation it keeps one
//     entry per row touched since the last Drain — a copy, in a reused
//     arena, of the tuple the row had first — behind a map on the
//     RowID. Drain reads each touched row back from the store and
//     emits, per row whose current tuple is not key-identical to its
//     first, (old, −1) and (new, +1). A→B→A and insert-then-delete
//     drain empty.
//   - An ivm.BaseDelta returned by Drain is valid until the next Drain
//     on that log and no longer: containers and tuples alike sit in
//     buffers the log zeroes and refills. Consumers clone the rows they
//     keep (ivm's scan leaf reports them unowned). It is a plain list
//     of signed rows, not a set: operators fold signed counts.
//
// The walk itself is unchanged by any of this: testdata/trajectory.txt
// in internal/mcmc, internal/ie, internal/coref and internal/exp pin a
// fixed-seed run of every proposer, recorded on the closure-based API.
//
// # Internals
//
// The internal packages layer from model to server:
//
//	internal/factor    factor-graph templates and log-linear scoring
//	internal/mcmc      Metropolis-Hastings walk over possible worlds
//	internal/learn     SampleRank parameter estimation
//	internal/ie        skip-chain NER model, corpus generator, proposer
//	internal/coref     entity-resolution model (second workload)
//	internal/relstore  the single-world store: column vectors, copy-on-write clones
//	internal/ra        relational algebra: plans, binding, evaluation
//	internal/sqlparse  SQL front end lowering to ra plans
//	internal/ivm       incremental view maintenance over Δ⁻/Δ⁺ deltas
//	internal/world     change log, epochs, snapshot publication
//	internal/store     durable storage: snapshots + WAL, crash recovery
//	internal/core      query evaluators (naive and materialized) + estimator
//	internal/metrics   loss traces and serving counters
//	internal/exp       experiment harness regenerating the paper's figures
//	internal/serve     the request pipeline and its sampling strategies
//
// Three commands sit on top of the facade: cmd/factordb evaluates a
// single query from the command line, cmd/factordbd serves concurrent
// SQL queries over HTTP, and cmd/experiments regenerates the paper's
// evaluation through the internal harness.
//
// See README.md for the architecture tour and server usage, and the
// examples/ directory for runnable entry points.
package factordb
