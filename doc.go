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
// engine, and the modes differ in one step, where a sampling pass takes
// its samples — "pool" is ModeServed's shared chain pool, "private" the
// local modes' chain per query — and in what a write lands on after the
// prototype: the pool's chains, or nothing. So there is one glossary,
// which TestSpanGlossary pins against the code. A query whose plan reads
// no hidden column samples nothing under any mode (see "Certain
// answers"): "certain" marks its one span, which replaces the pass's.
//
//	kind      span                emitted by  what is being timed
//	query     compile             all         SQL to plan (attr plan_cache: hit, miss)
//	query     cache_probe         all         result-cache lookup (attr result); not under NoCache
//	query     admission_wait      all         the admission queue queries and writes share
//	query     register            pool        view mount or registry hit per chain (attr view_reuse)
//	query     sample_wait         pool        the chains walking until the budget is met or a round of ranked looks separates, then detaching the unfinished
//	query     snapshot_merge      pool        merging the per-chain snapshots (attr samples)
//	query     clone_world         private     cloning the prototype world
//	query     sample              private     burn-in plus the whole sample budget (attr samples)
//	query     evaluate            certain     one evaluation of a certain plan, on the prototype world
//	query     rank                all         ORDER BY / LIMIT over the merged estimate
//	exec      compile             all         SQL to mutation (attr plan_cache)
//	exec      admission_wait      all         as for queries
//	exec      resolve             all         predicate to row-level ops, on the prototype world
//	exec      wal_append          all         the durable log append (WithDataDir only)
//	exec      fsync               all         the append's sync share, carved out once the WAL reports it
//	exec      fanout              pool        the prototype's apply, then ops delivered until every chain has applied them
//	exec      burn_in             pool        the re-equilibration walk; opens when the slowest chain has applied the ops
//	exec      delta_fold          pool        folding the delta into every live view; opens when the slowest chain ends burn_in
//	exec      republish           pool        from the slowest chain's delta fold to the fan-out's return; copies nothing (a stable name)
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
// every mode; failures audit at Warn, commits at Info. cmd/factordbd
// wires both through its -log-format, -log-level and -slow-query flags;
// TestDaemonKillRecovery validates a real daemon's JSON log against this
// contract and resolves its trace IDs on the debug listener.
//
// EXPLAIN ANALYZE SELECT executes the streaming plan once per chain of
// the served pool — once on the prototype world instead for a certain
// plan, which is answered there in every mode, and for any plan in a
// local mode, whose queries' chains clone it — with per-operator
// instrumentation and returns the annotated tree (actual vs
// estimated rows, per-operator self time, filters fused into scans and
// joins) as PLAN rows, like EXPLAIN. DML cannot be analyzed — a write
// cannot be executed speculatively. The uninstrumented path never
// reaches a recorder (TestStreamNeverReachesAnalyzeRecorder counts it).
//
// Sampler health is exported alongside: per-chain acceptance rate and
// steps/sec, and — per live shared view — the cross-chain split-R̂ and
// effective sample size of the view's answer-cardinality stream, on
// GET /metrics (factordb_chain_*, factordb_view_rhat, factordb_view_ess)
// and GET /statusz. /metrics also carries the Go runtime's own series,
// read on scrape: go_goroutines, go_gc_heap_live_bytes,
// go_gc_cycles_total and go_gc_pause_seconds_total.
//
// # Certain answers
//
// The sampler owns the hidden columns — TOKEN.LABEL under NER,
// MENTION.CLUSTER under coref — and the model that binds one declares it
// in the schema (relstore.DB.DeclareHidden), also on a world a data
// directory recovered, since a snapshot does not carry the declaration.
// Every other column is evidence, the same in every possible world. A
// plan whose bound tree reads no hidden column is certain
// (ra.Bound.Certain): its answer is the same in every world, so it is
// not sampled. After the result-cache probe it is evaluated once at the
// current data epoch, in every mode on the prototype world, which holds
// every committed write, with no view mounted, no chain asked and no
// sample awaited. Every tuple comes back at P = 1 with the interval
// [1, 1], and the answer reports its sample budget as its sample count
// (an exact answer is worth any budget) and Epoch 0, since no chain
// produced it. It is cached like
// any other, and EXPLAIN marks its plan certain. SELECT STRING FROM
// TOKEN WHERE TOK_ID = 0 and SELECT COUNT(*) FROM TOKEN are certain;
// Query 1, which selects on LABEL, is not.
//
// # Write path: DML and the data epoch
//
// The database is writable through DB.Exec, database/sql's ExecContext,
// and POST /exec — the paper's update model made operational. Because
// the store holds a single possible world, a write is a plain mutation
// of that world: the samplers keep walking, with none of the lineage
// recomputation tuple-level probabilistic databases pay on update. A
// write changes the evidence columns it touches and every answer that
// selects on them. Coref's chains also see UPDATE, DELETE and INSERT on
// MENTION in their factors, at their next proposal. NER's factor graph
// is still built from the corpus at set-up, so its hidden-variable
// marginals do not respond to a write, and a DELETEd token's label
// freezes at its tombstone's code while it still shapes its neighbours'
// factors (ROADMAP item 2).
// The DML grammar (literals only on the write path; WHERE is a
// conjunction of simple comparisons):
//
//	INSERT INTO t [(col, ...)] VALUES (lit, ...) [, (lit, ...)]...
//	UPDATE t [alias] SET col = lit [, col = lit]... [WHERE cond AND ...]
//	DELETE FROM t [alias] [WHERE cond AND ...]
//
// An INSERT column list must cover the whole schema (the store has no
// defaults). A write targets evidence only: an UPDATE that sets a hidden
// column, or an UPDATE or DELETE whose WHERE reads one, fails with
// ErrBadQuery naming the column, before the WAL append (HTTP 400). The
// sampler owns a hidden variable's state, and a predicate over one would
// match rows by the walk of whichever world it was resolved against. An INSERT's value for a hidden column is
// accepted as the new row's initial state. The prototype world is the
// engine's one evidence world in every mode: under the write lock, a
// write's predicates are resolved once against it, the resulting
// row-level ops are appended to the WAL, applied to it, and replayed on
// every chain of the pool — a local mode has none, and its next query
// clones the written prototype — so no chain's world diverges from it.
// Each chain absorbs them at an epoch boundary, walks a configurable
// burn-in, and resets the estimators of its live views; a query in
// flight across a write re-collects rather than blend pre- and
// post-write samples (one cut short merges only the chains at the newest
// write generation), and queries issued after Exec returns never observe
// pre-write state.
// Resolution evaluates the predicate inside a storage scan, which runs
// in ascending RowID order, as does the op list; a top-level column =
// constant conjunct is tested on the column vector before a row is
// materialized. Applied ops go through the same row-keyed change log as
// the sampler's flips (see "The walk step" below), so a row updated and
// updated back, or inserted and deleted, within one batch nets to
// nothing.
//
// The data-epoch contract sits next to the plan-IR contract above: every
// committed write bumps the database's data epoch (ExecResult.Epoch,
// DB.WriteEpoch, the factordb_write_epoch gauge, /healthz write_epoch),
// and the served-mode result cache keys on (data epoch, plan
// fingerprint, result spec, samples, confidence). A cached answer
// therefore can never survive a write — whatever spelling of the query
// produced it — while spelling variants keep sharing entries within an
// epoch. The answer itself is frozen when its evaluation publishes it:
// the cache and every reader share it read-only, and a hit gets its own
// header (SQL text, cached flag, trace) without copying a tuple. So is
// its HTTP body: the answer's JSON members are encoded once per answer
// and kept with it, and a response writes only what varies per request
// — "sql", "cached" and the request's own trace — around those bytes.
//
// Below the result cache sits the raw-SQL plan cache, the one place a
// compiled statement lives, keyed on the exact statement bytes — no
// normalization, so spellings differing by one whitespace byte occupy
// two entries, and a repeated spelling skips lexing, parsing and
// planning. An entry is a plan, a mutation, an EXPLAIN, or for a
// statement with ? placeholders its text; no entry keeps a syntax tree.
// An execution with new arguments — via Prepare, database/sql or HTTP
// args — parses that text once with the arguments read as literals and
// plans it, so it fingerprints and caches identically to the statement
// with its literals inline; the plan of each argument list is kept
// beside the statements, so arguments bound before parse and plan
// nothing. Entries hold no data, so they
// need no epoch invalidation; they are evicted FIFO (WithPlanCache) and
// an evicted statement compiles again on its next execution. Statements
// that fail to compile are never cached.
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
// when it put any), a "key filter:" line per join input a view filters
// by key (see Execution), the bound fingerprint, how a query arriving now
// would be answered (a "certain:" line for a plan that reads no hidden
// column, else the view-sharing decision), the result spec, and whether
// the plan cache already held the entry.
//
// # Durability: snapshots, the WAL, and recovery
//
// WithDataDir(dir) makes the write path durable (cmd/factordbd:
// -data-dir). The store persists exactly the evidence — the prototype
// possible world and committed mutations; a coref reopen needs nothing
// else and serves the recovered rows whatever CorefConfig says. NER's
// graph, weights and chains are rebuilt from the workload config on
// every open, over the recovered world: a model addressing rows that
// world never issued (say, a larger factordbd -tokens) fails Open with
// ErrRecovery, but one that fits the rows (a smaller or reseeded corpus)
// serves the world under a model built for other rows, undetected.
// Two on-disk artifacts live in dir:
//
//   - snap-<epoch>.snap: a checkpoint of the world as of a data epoch.
//     Format "snap2:": magic, little-endian epoch, columnar world dump
//     (per relation a liveness bitmap, then per column the live rows'
//     payloads: numbers, each an int64 on disk whatever width the store
//     holds them at, and dictionary strings and codes, each code a
//     uint32 on disk; a vector decodes at the narrowest width its live
//     values need: 1, 2 or 4 B for integers in [0, 2⁸), [0, 2¹⁶) or
//     [0, 2³²), 8 B otherwise, and a STRING column's codes by the same
//     rule, 1 B for at most 256 strings, 2 B for at most 65 536),
//     CRC-32 trailer; streamed to a temp file and atomically renamed.
//     A relation's slot vectors, tombstones included, may take at most
//     513 times the bytes its header obliges the file to hold (the
//     bitmap and the fixed-width payloads). So decoding allocates at
//     most 513 bytes of vector per byte of input, and a relation of up to
//     8 columns checkpoints whatever it deleted. Files of the retired
//     gob format, "snap1:", are refused with ErrRecovery; convert such a
//     directory by opening it once with an earlier build that still reads
//     snap1 and calling DB.Checkpoint.
//   - wal.log: an append-only log of committed op batches. Format
//     "wal1:": magic, then length-prefixed records (u32 length, u32
//     CRC-32 (IEEE), payload of epoch + resolved row-level ops). Both
//     prefixes are versioned; incompatible changes bump them, so an old
//     binary refuses a new directory rather than misreading it. A
//     checkpoint keeps the next older snapshot and the log records past
//     it. An earlier build that held snapshots to an id-density rule (at
//     most 65 536 + 16 ids per live row) refuses a checkpoint of a
//     mostly-deleted world. It falls back to that kept snapshot plus its
//     log tail, the same world, until a later checkpoint prunes that
//     snapshot; from then on that build refuses the directory.
//
// The commit rule: Exec appends the batch to the WAL (honoring the
// fsync policy — FsyncAlways syncs per append, FsyncInterval (default)
// syncs on a ~100ms background ticker, FsyncNever leaves it to the OS)
// before any world, the prototype included, applies it. Recovery loads the newest valid snapshot
// and replays only records with epoch greater than the snapshot epoch —
// replay is idempotent by construction because ops are row-level
// assignments keyed by epoch, never read-modify-write. The first
// invalid record (torn frame, short payload, CRC mismatch) ends the
// log: the tail beyond it is truncated, reported as torn_tail in
// DurabilityStatus, and never replayed. Background checkpointing
// (WithCheckpointEvery) writes a snapshot, deletes all older ones but
// the newest, and drops the WAL prefix that kept snapshot covers, so a
// rotted newest snapshot falls back to the older one plus an unbroken
// log tail. The store owns no world: it keeps the prototype by reference
// (the world it was seeded with, or the one it recovered and the model
// was built over), and a checkpoint dumps a clone of it. The write that
// crosses a threshold fixes the checkpoint inside its WAL append, before
// the prototype takes it: the world is cloned at the previous epoch,
// that write stays in the log tail, and the counts restart. Only the
// encoding and file writes run in the background, so which writes each
// checkpoint covers never depends on timing. DB.Checkpoint goes through
// the engine, which clones between writes. After recovery
// the restored write epoch is observable at DB.WriteEpoch and /healthz
// write_epoch, and a served engine walks a burn-in before answering so
// marginals re-equilibrate around the recovered evidence.
//
// # Plan IR: canonical form and fingerprints
//
// Every query, whatever its entry path (DB.Query, database/sql, HTTP),
// binds to one canonical tree. ra.Prepare binds the plan the sqlparse
// planner lowered against the catalog, then rewrites it: it flattens,
// deduplicates and sorts AND/OR conjunctions, orients comparisons
// (literals on the right), folds constant subexpressions, drops TRUE
// selections and sorts equi-join keys — without ever changing answer
// semantics, aliases or output column names. Every sort is keyed on the
// bound encoding the fingerprint hashes, where a column is its position,
// so spelling variants of one query (whitespace, keyword case, alias
// names, column qualification, predicate order, flipped comparisons)
// are one tree. A plan is bound as written first, so it fails with the
// errors it was written with.
//
// The engine's plan cache binds each SELECT once (ra.Prepare) into a
// canonical, column-pruned tree that refers to no world, and keeps its one
// fingerprint, ra.Bound.Fingerprint (prefix "bfp1:"): a hash of the bound
// structure of every subtree — column positions rather than names, no
// aliases, no output names. The served-mode result cache keys on it plus
// the output column names, result spec, samples and confidence, so
// textual variants share one entry. The per-chain view registries key
// physical materialized views on it: concurrent queries with equal plans
// share one incrementally maintained view per chain (refcounted,
// maintained once per walk batch regardless of subscriber count); plans
// that differ keep private operator trees, as in the paper's one view
// per query. Per-query options that do not change the answer
// distribution — sample budget, confidence level — are deliberately
// excluded from view identity and applied at estimator-merge time. A
// chain looks the fingerprint up first: a live view is reused with no
// bind, copy or hash, and only a new one mounts a copy of the statement
// on the chain's world (Bound.On). Traces, the slow-query log, /statusz
// and EXPLAIN show the same fingerprint.
//
// Stability: the prefix versions the encoding; an incompatible encoding
// change bumps it ("bfp2:"), so stale keys miss rather than collide. A
// planner change that emits a different plan moves that query to a new
// key. Nothing persists a key. The golden test
// internal/sqlparse/testdata/fingerprints.golden pins the paper's queries.
//
// # Execution: the streaming iterator contract
//
// A query runs as compile → bind, canonicalize and prune → evaluate.
// ra.Bind resolves columns, binds the canonical form, and then narrows
// the tree: a top-down pass finds which output columns of each node
// anything above it reads and projects every join input onto the read
// ones (join keys, residual filter, ancestors' references). The root,
// Distinct and OrderLimit read every column of their children; nothing is
// inserted where nothing would be dropped, so a plan without a join is
// not narrowed. Every consumer —
// ra.Stream, the ivm compiler, EXPLAIN, Bound.Fingerprint — sees that
// one narrow tree; a maintained view therefore keeps a pruned join side
// as (read columns, multiplicity) rows, not as base tuples.
//
// Bound plans execute through ra.Stream, which compiles that same tree
// (the planner placed every predicate) into a single re-runnable iterator:
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
// A view's join keeps only the rows that can join. ra.Prepare gives an
// equi-join input a key filter (ra.KeyFilter) when the other input is a
// leaf chain, selections and projections over one scan, whose selection
// has conjuncts that read no hidden column and whose join key is
// evidence. Query 4's Boston side is one: its STRING = 'Boston' conjunct
// reaches the documents holding a "Boston" token, so its person side
// keeps the persons of those documents only. EXPLAIN prints one
// "key filter:" line per filtered input. At mount the join builds that
// key set K with one store scan, per view and per chain. No flip changes
// K, since a flip writes a hidden column only. A write can:
// relstore.Relation.EvidenceGen counts a relation's inserts, deletes and
// evidence updates, and a join whose relation's count moved looks
// through the delta for an added row that passes the evidence conjuncts
// with a key outside K. If it finds one, the join remounts from the
// store, retracting its old output and emitting the new one, so the
// view's answer keeps its slots and crossing log. So a write that brings
// a new key into K costs each live view that filters on it one remount,
// and any other write one pass over its delta rows. ra.Stream and
// EXPLAIN ANALYZE run unfiltered.
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
//     learn.Proposer (ProposeRank + Accept) is the same protocol for
//     SampleRank.
//   - Scoring is array-indexed, on the weights training wrote.
//     learn.Weights is one dense θ in ie's feature layout
//     (capitalization, bias, transition and skip at fixed offsets, then
//     emission per STRING code × label): SampleRank updates it in place
//     through a reused learn.Delta buffer, and every score reads the
//     same slice, summing the factors in the order FeatureDelta lists
//     them; θ is read-only once exp.BuildNER has scaled it by the
//     temperature and shares the model.
//     An ie.CorpusIndex, built once per corpus over the loaded TOKEN
//     relation and shared read-only by every tagger, reads each token's
//     STRING code from the vector it borrows at its width
//     (Relation.StringCodes lends a read-only relstore.Slots view and
//     marks the vector shared, so no write changes it), keeps one
//     capitalization flag per code and the skip edges as cliques — a
//     clique number per position, 1 B while a document has fewer than
//     256 cliques, and one ascending member list per capitalized string a
//     document repeats, 134 kB at 50 000 tokens; the trainer reads
//     gold from TRUTH codes through the same view. After set-up the
//     store, the index and θ are all that stays in memory. Token i of
//     document d is TOKEN row first[d]+i, as ie.LoadCorpus inserts them;
//     ie.NewTagger refuses a shorter relation.
//   - The store is columnar and its worlds share vectors copy-on-write
//     (internal/relstore). A chain's labels are its world's LABEL codes,
//     held nowhere else: the tagger reads them, tombstones included, with
//     Relation.CodeAt from the column's current vector through a table
//     from code to label, since a checkpoint reload re-codes LABEL. A
//     flip is Relation.SetCol through a world.Field resolved when the
//     tagger is built; no row is copied. Every column is one kind of
//     vector, relstore.Slots: 1, 2 or 4 B per slot while every value it
//     holds is in [0, 2⁸), [0, 2¹⁶) or [0, 2³²), 8 B otherwise; it
//     widens in place, only in a world that owns it, and never narrows.
//     An INT or BOOL vector holds values, a STRING one codes over an
//     append-only dictionary shared by every world of its lineage. LABEL
//     holds the nine labels, so it costs a chain 1 B per token, and a
//     flip (ie.Declare interns the nine labels on every world) allocates
//     nothing; at 50 000 tokens STRING (1 346 strings) and TOK_ID cost
//     2 B and DOC_ID 1 B per token. The dictionary grows only on writes,
//     never on reads — a scan looks its literal up and an absent one
//     selects nothing — and a checkpoint reload compacts it to the
//     strings live rows hold. A scan's column = c compares at the
//     vector's width (a string as its code), and a constant the width
//     cannot hold selects nothing.
//   - world.ChangeLog nets by row identity. Per relation it keeps one
//     record per row touched since the last Drain, behind a map on the
//     RowID. A sampler flip records only the value the flipped column
//     had first; a DML touch, or a flip of a second column, widens the
//     record to the row's first tuple. Drain nets and gathers nothing:
//     a flip record whose column is back at its value is dropped, and
//     every other one goes out in first-touch order as the log holds
//     it, the row, the column and its old value, with the value the
//     column holds now read beside it. A widened or inserted record
//     goes out as whole signed tuples, (old, −1) then (new, +1). A→B→A
//     and insert-then-delete drain empty. A log whose delta nobody
//     folds (a naive evaluator, a burn-in before any view, the engine's
//     log over its prototype, a recovery's replay) calls Discard, which
//     closes the epoch
//     without netting. Every buffer is kept only while at most four
//     times what the batch used (64-row floor), so a burst goes at the
//     next ordinary Drain.
//   - An ivm.BaseDelta returned by Drain is valid until the next Drain
//     on that log and no longer, and while the walk alone writes the
//     store: the next Drain zeroes and refills its records, and a flip
//     record's other columns are read from the store. A scan leaf
//     gathers a flip record's two rows into scratch of its own, one
//     record at a time, and only when the flip can change what it
//     pushes: its steps read the flipped column (Query 3's outer TOKEN
//     reads only DOC_ID) and its col = const conjunct holds before or
//     after the flip (the LABEL = '…' leaves of Queries 1–4). Consumers
//     clone the rows they keep (the leaf reports them unowned). The
//     records are a plain list of signed rows, not a set: operators
//     fold signed counts.
//
// The walk itself is unchanged by any of this: testdata/trajectory.txt
// in internal/mcmc, internal/ie, internal/coref and internal/exp pin a
// fixed-seed run of every proposer, recorded on the closure-based API
// (internal/mcmc's external tests pin internal/factor's proposer).
//
// # Internals
//
// The internal packages layer from model to server:
//
//	internal/mcmc      Metropolis-Hastings walk over possible worlds
//	internal/learn     SampleRank parameter estimation
//	internal/ie        skip-chain NER model, corpus generator, proposer
//	internal/coref     entity-resolution model (second workload)
//	internal/factor    enumerable factor-graph model: the exact oracle
//	                   that query answers are checked against through SQL
//	internal/relstore  the single-world store: column vectors, copy-on-write clones
//	internal/ra        relational algebra: plans, binding, evaluation
//	internal/sqlparse  SQL front end lowering to ra plans
//	internal/ivm       incremental view maintenance over Δ⁻/Δ⁺ deltas
//	internal/world     change log, epochs, and the model contract (Prototype)
//	internal/store     durable storage: snapshots + WAL, crash recovery
//	internal/core      query evaluators (naive and materialized) + estimator
//	                   whose dictionary is the view's answer slot table, so
//	                   a sample folds only the tuples that crossed zero
//	internal/metrics   loss traces and serving counters
//	internal/exp       experiment harness regenerating the paper's figures
//	internal/serve     the one engine: request pipeline, write path, chain pool
//
// Every model, the factor oracle included, is served through one
// contract, world.Prototype: a prototype world in which the model has
// declared its hidden column, and a bind that makes a proposer over one
// clone's change log. A model supplies three things: the declared hidden
// column; a score delta over rows (ie.Model.ScoreDelta,
// coref.Model.MoveDelta, factor.Graph.ScoreDelta); and that proposer,
// which reads its state from the clone on every proposal, writes each
// accepted move through the log, and rebuilds anything it derives from
// the evidence when the relation's EvidenceGen moves, as coref's
// cluster index does. No model keeps a copy of its hidden column, so a
// chain's state is its world, and a deleted row's value freezes at its
// tombstone.
//
// Three commands sit on top of the facade: cmd/factordb evaluates a
// single query from the command line, cmd/factordbd serves concurrent
// SQL queries over HTTP, and cmd/experiments regenerates the paper's
// evaluation through the internal harness.
//
// See README.md for the architecture tour and server usage, and the
// examples/ directory for runnable entry points.
package factordb
