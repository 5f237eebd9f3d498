// Command factordbd is the factordb daemon: it opens the probabilistic
// NER database once at startup through the public facade in served mode,
// then answers concurrent SQL queries over HTTP while a pool of parallel
// MCMC chains keeps walking the possible-world space. All in-flight
// queries share the chains' walk-steps through incrementally maintained
// views, so concurrent load adds view maintenance cost only.
//
// Usage:
//
//	factordbd -addr :8080 -tokens 50000 -chains 4 -steps 1000
//	factordbd -data-dir /var/lib/factordb -fsync interval
//	factordbd -log-format json -slow-query 250ms
//
// With -data-dir set, every committed write is appended to a durable
// write-ahead log and the evidence world is checkpointed in the
// background; restarting with the same directory recovers the world and
// the write epoch a crash interrupted (see the README's Durability
// section).
//
// All operational output is structured logging (log/slog) on stderr:
// -log-format selects text or json, -log-level the floor, and
// -slow-query arms the slow-query log — any query or write at or over
// the threshold emits a "slow_query" record with its span breakdown and
// trace ID, cross-referenceable against GET /debug/traces.
//
// Endpoints:
//
//	POST /query    {"sql": "SELECT STRING FROM TOKEN WHERE LABEL='B-PER'", "samples": 128}
//	POST /exec     {"sql": "UPDATE TOKEN SET STRING='Boston' WHERE TOK_ID=4711"}
//	GET  /healthz  liveness, chain-pool status, data epoch
//	GET  /metrics  Prometheus text exposition
//	GET  /statusz  introspection: live views, sampler health, cache, startup trace
//
// With -debug-addr set, a second listener serves the operator-only
// endpoints (GET /debug/pprof/..., GET /debug/traces); without it they
// are not reachable at all.
//
// /exec applies a DML mutation (INSERT, UPDATE or DELETE) to every
// chain's world and invalidates all cached pre-write answers; the
// chains keep sampling without a restart. A write moves the answers that
// select on the written evidence; the factor graph does not see it yet.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"factordb"
)

// readHeaderTimeout bounds either listener's wait for a request's headers.
const readHeaderTimeout = 5 * time.Second

func main() {
	var (
		addr    = flag.String("addr", ":8080", "HTTP listen address")
		tokens  = flag.Int("tokens", 20000, "number of tokens in the synthetic corpus")
		seed    = flag.Int64("seed", 1, "random seed for corpus, training and chains")
		chains  = flag.Int("chains", 0, "parallel MCMC chains (0 = GOMAXPROCS, capped at 8)")
		steps   = flag.Int("steps", 1000, "MH walk-steps between samples (thinning interval k)")
		burn    = flag.Int("burn", 0, "walk-steps to discard per chain before serving")
		samples = flag.Int("samples", 128, "default per-query sample budget")
		maxConc = flag.Int("max-concurrent", 16, "queries evaluated concurrently before queuing")
		maxQ    = flag.Int("max-queued", 64, "queries queued before shedding with 503")
		cacheN  = flag.Int("cache-size", 128, "result cache entries (negative disables)")
		cacheT  = flag.Duration("cache-ttl", time.Minute, "result cache freshness bound")
		planN   = flag.Int("plan-cache", 0, "raw-SQL plan cache entries (0 = default 256)")
		noSkip  = flag.Bool("no-skip", false, "disable skip-chain factors (plain linear chain)")
		dbgAddr = flag.String("debug-addr", "",
			"listen address for the debug endpoints (pprof, /debug/traces); empty disables them")
		traceN = flag.Int("trace-every", 0,
			"trace every n-th query into the debug ring (0 = client opt-in only)")
		dataDir = flag.String("data-dir", "",
			"directory for the durable snapshot+WAL store; empty runs in-memory only")
		fsync = flag.String("fsync", "interval",
			"WAL sync policy with -data-dir: always, interval or never")
		ckOps = flag.Int64("checkpoint-ops", 0,
			"ops between background checkpoints (0 = default 4096, negative disables)")
		ckBytes = flag.Int64("checkpoint-bytes", 0,
			"WAL bytes between background checkpoints (0 = default 4MiB, negative disables)")
		logFormat = flag.String("log-format", "text", "log output format: text or json")
		logLevel  = flag.String("log-level", "info", "log level floor: debug, info, warn or error")
		slowQuery = flag.Duration("slow-query", 0,
			"slow-query log threshold; queries and writes at or over it emit a slow_query record (0 disables)")
	)
	flag.Parse()

	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "factordbd:", err)
		os.Exit(1)
	}
	slog.SetDefault(logger)
	fatal := func(err error) {
		logger.Error("fatal", "error", err)
		os.Exit(1)
	}

	fsyncPolicy, err := factordb.ParseFsyncPolicy(*fsync)
	if err != nil {
		fatal(err)
	}

	logger.Info("building NER system", "tokens", *tokens, "seed", *seed)
	start := time.Now()
	opts := []factordb.Option{
		factordb.WithMode(factordb.ModeServed),
		factordb.WithChains(*chains),
		factordb.WithSteps(*steps),
		factordb.WithBurnIn(*burn),
		factordb.WithSeed(*seed + 42),
		factordb.WithSamples(*samples),
		factordb.WithQueryLimits(*maxConc, *maxQ),
		factordb.WithCache(*cacheN, *cacheT),
		factordb.WithPlanCache(*planN),
		factordb.WithTraceSampling(*traceN),
		factordb.WithLogger(logger),
		factordb.WithSlowQueryLog(*slowQuery),
	}
	if *dataDir != "" {
		opts = append(opts,
			factordb.WithDataDir(*dataDir),
			factordb.WithFsync(fsyncPolicy),
			factordb.WithCheckpointEvery(*ckOps, *ckBytes),
		)
	}
	db, err := factordb.Open(
		factordb.NER(factordb.NERConfig{Tokens: *tokens, Seed: *seed, LinearChain: *noSkip}),
		opts...,
	)
	if err != nil {
		fatal(err)
	}
	defer db.Close()
	logger.Info("database open",
		"describe", db.Describe(),
		"build_ms", time.Since(start).Milliseconds(),
		"chains", db.Chains(),
		"steps", *steps)
	if d := db.Durability(); d != nil {
		logger.Info("durable store recovered",
			"dir", d.Dir,
			"fsync", d.Fsync,
			"recovered_epoch", d.RecoveredEpoch,
			"replayed_records", d.ReplayedRecords,
			"torn_tail", d.TornTail)
	}

	srv := &http.Server{Addr: *addr, Handler: db.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr)
		errCh <- srv.ListenAndServe()
	}()

	// The debug endpoints (pprof profiles, recent query traces) are only
	// served when explicitly asked for, on their own listener — they can
	// leak query text and timing, so they never ride on the public mux.
	if *dbgAddr != "" {
		dbgSrv := &http.Server{Addr: *dbgAddr, Handler: db.DebugHandler(), ReadHeaderTimeout: readHeaderTimeout}
		go func() {
			logger.Info("debug endpoints up", "addr", *dbgAddr)
			if err := dbgSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug server", "error", err)
			}
		}()
		defer dbgSrv.Close()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		logger.Info("shutting down", "signal", s.String())
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Error("shutdown", "error", err)
		}
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}
}

// newLogger builds the process logger from the -log-format / -log-level
// flags. Everything goes to stderr, leaving stdout for data.
func newLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", level)
	}
	ho := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, ho)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, ho)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
}
