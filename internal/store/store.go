// Package store is the durable-storage subsystem: it persists the
// probabilistic database's evidence — the prototype possible world plus
// the append-only log of every committed DML mutation — so that a
// restart recovers the exact world a crash interrupted instead of
// rebuilding from the corpus and losing all writes.
//
// The design follows the classical snapshot + write-ahead-log split. A
// snapshot is a whole-world dump (relstore's gob encoding) stamped with
// the data epoch it covers. The WAL appends one record per committed
// write: the resolved row-level op batch of PR 5's mutation IR, which is
// already world-independent (row identities fixed, predicates
// pre-evaluated) and therefore replayable verbatim. Recovery loads the
// newest valid snapshot and replays only the log tail — records whose
// epoch exceeds the snapshot's — tolerating a torn final record, which
// is truncated away so subsequent appends extend a clean log.
//
// Only evidence is persisted. The factor graph, trained weights and the
// sampler's hidden state are deterministic functions of the workload
// config (or re-equilibrated by post-recovery burn-in), so persisting
// them would buy nothing and cost snapshot width.
package store

import (
	"fmt"
	"log/slog"
	"time"
)

// FsyncPolicy selects when WAL appends reach stable storage.
type FsyncPolicy uint8

const (
	// FsyncInterval (the default) syncs the log on a background ticker
	// every 100ms: a crash loses at most that interval of committed
	// writes, and the append path never waits on the disk.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways syncs after every append: no committed write is ever
	// lost, at the cost of one fsync per Exec.
	FsyncAlways
	// FsyncNever leaves flushing to the OS page cache: fastest, and
	// still crash-consistent (the CRC framing drops a torn tail), but an
	// OS crash can lose recent writes.
	FsyncNever
)

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncInterval:
		return "interval"
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	}
	return "unknown"
}

// ParseFsyncPolicy converts the flag spelling of a policy — the inverse
// of String.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	for _, p := range []FsyncPolicy{FsyncInterval, FsyncAlways, FsyncNever} {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("factordb: unknown fsync policy %q (want always, interval or never)", s)
}

// syncInterval is the FsyncInterval ticker period.
const syncInterval = 100 * time.Millisecond

// Options parameterizes Open. Zero values take the documented defaults.
type Options struct {
	// Dir is the data directory; it is created if missing.
	Dir string
	// Fsync is the WAL sync policy (default FsyncInterval).
	Fsync FsyncPolicy
	// CheckpointOps triggers a background checkpoint once this many ops
	// have been appended since the last one (default 4096; negative
	// disables op-triggered checkpoints).
	CheckpointOps int64
	// CheckpointBytes triggers a background checkpoint once this many
	// bytes of log have been appended since the last one (default 4 MiB;
	// negative disables).
	CheckpointBytes int64
	// Logger, when non-nil, receives structured records for failures the
	// store can only surface asynchronously — background fsync and
	// checkpoint errors that would otherwise live in Stats.LastError only.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.CheckpointOps == 0 {
		o.CheckpointOps = 4096
	}
	if o.CheckpointBytes == 0 {
		o.CheckpointBytes = 4 << 20
	}
	return o
}

// Recovery summarizes what Open found on disk.
type Recovery struct {
	// SnapshotEpoch is the data epoch the loaded snapshot covers (0 if
	// none existed).
	SnapshotEpoch int64
	// Epoch is the recovered data epoch: the last replayed record's
	// epoch, or SnapshotEpoch when the log held nothing newer.
	Epoch int64
	// ReplayedRecords / ReplayedOps count the log tail applied on top of
	// the snapshot.
	ReplayedRecords int64
	ReplayedOps     int64
	// TornTail reports that the log ended in an invalid record —
	// truncated frame, CRC mismatch or trailing garbage — which was
	// discarded and truncated away.
	TornTail bool
	// Fresh reports an empty store: no snapshot and no log records.
	Fresh bool

	// Phase durations of the recovery itself — the material of the
	// startup trace surfaced on /statusz: loading the newest snapshot,
	// replaying the WAL tail past it, and truncating a torn final record.
	SnapshotLoadNS int64
	ReplayNS       int64
	TruncateNS     int64
}

// Stats is the introspection snapshot behind the /statusz and /healthz
// durability blocks.
type Stats struct {
	Dir             string
	Fsync           string
	Epoch           int64
	WALBytes        int64
	WALRecords      int64
	SnapshotEpoch   int64
	Checkpoints     int64
	LastCheckpointS float64 // seconds since the last checkpoint finished (0 if never)
	LastError       string  // last background checkpoint/sync failure, if any
}
