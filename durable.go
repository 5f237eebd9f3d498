package factordb

import (
	"fmt"

	"factordb/internal/serve"
	"factordb/internal/store"
)

// ErrRecovery marks durable-storage failures surfaced through the public
// API: a data directory that cannot be opened or recovered at Open, and
// a WAL append that fails mid-Exec (the write is vetoed). Match it with
// errors.Is; the wrapped message carries the store-level detail.
var ErrRecovery = serve.ErrWAL

// FsyncPolicy selects when WAL appends reach stable storage. See the
// WithFsync option.
type FsyncPolicy = store.FsyncPolicy

const (
	// FsyncInterval (the default) syncs on a background ticker — a crash
	// loses at most ~100ms of committed writes; writes never wait on disk.
	FsyncInterval = store.FsyncInterval
	// FsyncAlways syncs every append before the write commits.
	FsyncAlways = store.FsyncAlways
	// FsyncNever leaves flushing to the OS page cache.
	FsyncNever = store.FsyncNever
)

// ParseFsyncPolicy converts the flag spelling of a policy: "interval",
// "always" or "never".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) { return store.ParseFsyncPolicy(s) }

// WithDataDir enables durability: the prototype world is checkpointed to
// dir and every committed write is appended to a write-ahead log there,
// so reopening the same directory recovers the evidence — and the write
// epoch — a crash or restart interrupted. The directory is created if
// missing.
func WithDataDir(dir string) Option { return func(o *options) { o.store.Dir = dir } }

// WithFsync sets the WAL sync policy (default FsyncInterval). Ignored
// without WithDataDir.
func WithFsync(p FsyncPolicy) Option { return func(o *options) { o.store.Fsync = p } }

// WithCheckpointEvery tunes background checkpointing: a snapshot is
// written (and the covered log prefix dropped) once ops mutations or
// bytes of log have accumulated since the last one. Zero keeps the
// defaults (4096 ops, 4 MiB); negative disables that trigger. Ignored
// without WithDataDir.
func WithCheckpointEvery(ops, bytes int64) Option {
	return func(o *options) { o.store.CheckpointOps, o.store.CheckpointBytes = ops, bytes }
}

// openDurability opens (or initializes) the data directory and installs
// the recovered world into the system. Returns nil when durability is
// not requested. On return the system's prototype world reflects every
// record the log could prove, and the caller must resume the epoch
// sequence at rec.Epoch.
func openDurability(o store.Options, sys system) (*store.DiskStore, error) {
	if o.Dir == "" {
		return nil, nil
	}
	st, err := store.Open(o)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRecovery, err)
	}
	rec := st.Recovery()
	if rec.Fresh {
		// First open of this directory: the freshly built world is the
		// base snapshot every later recovery starts from.
		if err := st.Seed(sys.WorldDB(), 0); err != nil {
			st.Close()
			return nil, fmt.Errorf("%w: seeding %s: %v", ErrRecovery, o.Dir, err)
		}
		return st, nil
	}
	w := st.WorldClone()
	if w == nil {
		st.Close()
		return nil, fmt.Errorf("%w: %s recovered no world", ErrRecovery, o.Dir)
	}
	sys.RestoreWorld(w)
	return st, nil
}

// recoveryTrace renders what Open found on disk as a QueryTrace — the
// startup trace surfaced on GET /statusz. Spans are synthesized from the
// store's recovery phase timings (snapshot load, WAL replay, torn-tail
// truncation), contiguous by construction, with the replay counters as
// span attributes so a crash-recovery check can assert what was replayed.
func (db *DB) recoveryTrace(rec store.Recovery) *QueryTrace {
	id, traceID := db.eng.MintTraceID()
	qt := &QueryTrace{
		ID:      id,
		SQL:     "(startup recovery)",
		TraceID: traceID,
		Kind:    "recovery",
		Begin:   db.start,
		Outcome: "ok",
	}
	if rec.Fresh {
		qt.Outcome = "fresh"
	}
	off := int64(0)
	span := func(name string, dur int64, attrs map[string]string) {
		if dur < 0 {
			dur = 0
		}
		qt.Spans = append(qt.Spans, TraceSpan{Name: name, StartNS: off, DurNS: dur, Attrs: attrs})
		off += dur
	}
	span("snapshot_load", rec.SnapshotLoadNS, map[string]string{
		"snapshot_epoch": fmt.Sprintf("%d", rec.SnapshotEpoch),
	})
	span("wal_replay", rec.ReplayNS, map[string]string{
		"replayed_records": fmt.Sprintf("%d", rec.ReplayedRecords),
		"replayed_ops":     fmt.Sprintf("%d", rec.ReplayedOps),
		"epoch":            fmt.Sprintf("%d", rec.Epoch),
	})
	if rec.TornTail {
		span("torn_tail_truncate", rec.TruncateNS, map[string]string{"torn_tail": "true"})
	}
	qt.WallNS = off
	return qt
}

// DurabilityStatus reports the durable store behind a DB — the
// durability block of GET /statusz and GET /healthz. Nil when the DB was
// opened without WithDataDir.
type DurabilityStatus struct {
	Dir   string `json:"dir"`
	Fsync string `json:"fsync"`
	// WALBytes is the log's size, which also holds the records the
	// fallback snapshot behind the last checkpoint needs; WALRecords
	// counts the tail a restart would replay on top of that checkpoint.
	WALBytes   int64 `json:"wal_bytes"`
	WALRecords int64 `json:"wal_records"`
	// LastCheckpointEpoch is the write epoch the newest snapshot covers
	// and SnapshotBytes the size of its file; Checkpoints counts
	// snapshots written since open.
	LastCheckpointEpoch int64 `json:"last_checkpoint_epoch"`
	SnapshotBytes       int64 `json:"snapshot_bytes"`
	Checkpoints         int64 `json:"checkpoints"`
	// RecoveredEpoch and ReplayedRecords describe what Open found:
	// the write epoch restored from disk and the log records replayed to
	// reach it. TornTail reports that the log ended in a torn or corrupt
	// record, which recovery discarded.
	RecoveredEpoch  int64 `json:"recovered_epoch"`
	ReplayedRecords int64 `json:"replayed_records"`
	TornTail        bool  `json:"torn_tail,omitempty"`
	// LastError is the most recent background sync/checkpoint failure.
	LastError string `json:"last_error,omitempty"`
}

// Durability reports the durable store's state, or nil when the DB was
// opened without WithDataDir.
func (db *DB) Durability() *DurabilityStatus {
	if db.store == nil {
		return nil
	}
	st := db.store.Stats()
	rec := db.store.Recovery()
	return &DurabilityStatus{
		Dir:                 st.Dir,
		Fsync:               st.Fsync,
		WALBytes:            st.WALBytes,
		WALRecords:          st.WALRecords,
		LastCheckpointEpoch: st.SnapshotEpoch,
		SnapshotBytes:       st.SnapshotBytes,
		Checkpoints:         st.Checkpoints,
		RecoveredEpoch:      rec.Epoch,
		ReplayedRecords:     rec.ReplayedRecords,
		TornTail:            rec.TornTail,
		LastError:           st.LastError,
	}
}

// Checkpoint forces a snapshot of the durable world and truncates the
// replayed log prefix, independent of the background thresholds. It is
// a no-op error-free call on a DB opened without WithDataDir.
func (db *DB) Checkpoint() error {
	if db.store == nil {
		return nil
	}
	if err := db.store.Checkpoint(); err != nil {
		return fmt.Errorf("%w: checkpoint: %v", ErrRecovery, err)
	}
	return nil
}
