package factordb

import (
	"time"

	"factordb/internal/serve"
)

// The observability types are the engine's own: one definition, one JSON
// shape, whatever the mode.
type (
	// QueryTrace is the span breakdown of one query or write, returned by
	// Rows.Trace / ExecResult.Trace for operations that opted in (in
	// served mode the engine's trace sampler may also pick some). Span
	// names and attribute keys are a stable contract — see the package
	// documentation.
	QueryTrace = serve.QueryTrace
	// TraceSpan is one step of a trace. StartNS is the offset from the
	// trace's Begin; spans are contiguous and in order, so their
	// durations tile the wall time.
	TraceSpan = serve.TraceSpan
	// CacheStatus reports served-mode result-cache occupancy.
	CacheStatus = serve.CacheStatus
	// ChainStatus is one served chain's sampler health.
	ChainStatus = serve.ChainStatus
	// ViewHealth is one live shared view aggregated across the chain
	// pool, with its cross-chain convergence diagnostics.
	ViewHealth = serve.ViewHealth
)

// Status is the introspection snapshot behind GET /statusz: what the
// database is doing right now. In served mode it covers the chain pool's
// sampler health, the live shared views with their refcounts and
// convergence diagnostics, and the result-cache occupancy; the local
// modes report the reduced subset that exists there (one private chain
// per query, no shared views, no cache).
type Status struct {
	Mode       string  `json:"mode"`
	Chains     int     `json:"chains"`
	Epoch      int64   `json:"epoch"`
	WriteEpoch int64   `json:"write_epoch"`
	UptimeS    float64 `json:"uptime_s"`
	InFlight   int64   `json:"queries_inflight"`

	Cache CacheStatus   `json:"cache"`
	Pool  []ChainStatus `json:"pool,omitempty"`
	Views []ViewHealth  `json:"views,omitempty"`

	// Durability is the snapshot+WAL store's state; null without
	// WithDataDir.
	Durability *DurabilityStatus `json:"durability,omitempty"`

	// StartupTrace is the recovery trace assembled at Open — snapshot
	// load, WAL replay and torn-tail truncation as contiguous spans with
	// the replayed-record counts as attributes. Null without WithDataDir.
	StartupTrace *QueryTrace `json:"startup_trace,omitempty"`
}

// Status assembles the introspection snapshot. It is safe to call
// concurrently with queries and writes; the fields are gathered from
// lock-free mirrors, so a snapshot taken during a write may show chains
// one generation apart — the skew ChainStatus.WriteGen exists to expose.
func (db *DB) Status() Status {
	es := db.eng.Status()
	return Status{
		Mode:         db.opts.mode.String(),
		Chains:       es.Chains,
		Epoch:        es.Epoch,
		WriteEpoch:   es.DataEpoch,
		UptimeS:      time.Since(db.start).Seconds(),
		InFlight:     es.InFlight,
		Cache:        es.Cache,
		Pool:         es.Pool,
		Views:        es.Views,
		Durability:   db.Durability(),
		StartupTrace: db.startupTrace,
	}
}

// RecentTraces returns the most recent query and write traces, newest
// first: client-opted traces, slow operations, and in served mode the
// engine trace sampler's picks. The ring size is fixed (64 entries);
// traces are immutable. GET /debug/traces on DebugHandler serves this
// list.
func (db *DB) RecentTraces() []*QueryTrace { return db.eng.Traces() }
