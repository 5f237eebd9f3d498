package store

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"factordb/internal/metrics"
	"factordb/internal/relstore"
	"factordb/internal/world"
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// ErrSeeded is returned by Seed on a store that already holds a world.
var ErrSeeded = errors.New("store: already seeded")

// ErrNoBase marks a directory whose WAL has records but no snapshot to
// replay them onto — an incomplete store a recovery cannot trust.
var ErrNoBase = errors.New("store: wal records without a base snapshot")

const walName = "wal.log"

// DiskStore is the durable store the engine writes through: one
// append-only wal1 log plus checkpointed snap2 snapshots in a flat
// directory. It owns no world of its own: it keeps the caller's world —
// the one Seed was given, or the one Open recovered — by reference, and
// a checkpoint is a clone of that world dumped to disk, followed by a
// rewrite of the log that drops the prefix the kept older snapshot
// covers. The caller is the world's one writer, and the WAL-first rule
// is its to keep: it applies a batch only after Append returned, and it
// never mutates the world while Append or Checkpoint runs.
type DiskStore struct {
	opts Options
	rec  Recovery

	mu         sync.Mutex
	f          *os.File     // wal handle, positioned at end of the valid prefix
	world      *relstore.DB // the caller's, which takes each batch after its Append
	closed     bool
	dirty      bool  // appended frames not yet fsynced
	sinceOps   int64 // ops appended since the last checkpoint was cut
	sinceBytes int64 // log bytes appended since the last checkpoint was cut
	pending    *cut  // cut by Append, not yet taken by the worker
	lastErr    string

	// lastFsyncNS is the fsync share of the most recent Append (0 unless
	// the policy synced inline) — the serve.FsyncReporter contract traced
	// writes use to carve the fsync span out of wal_append.
	lastFsyncNS atomic.Int64

	// Scrape-safe mirrors: read by metric gauges and Stats without
	// taking mu, so a checkpoint in progress never blocks a scrape.
	epoch       atomic.Int64
	walBytes    atomic.Int64
	walRecords  atomic.Int64
	snapEpoch   atomic.Int64
	snapBytes   atomic.Int64
	checkpoints atomic.Int64
	lastCkUnix  atomic.Int64

	ckCh    chan struct{}
	closeCh chan struct{}
	wg      sync.WaitGroup

	// Metrics are optional; nil histograms are skipped.
	appendH *metrics.Histogram
	fsyncH  *metrics.Histogram
	ckH     *metrics.Histogram
}

// Open recovers (or initializes) a disk store in opts.Dir: it loads the
// newest valid snapshot, replays the log tail past the snapshot's
// epoch, truncates away a torn final record, and leaves the log handle
// positioned for appends. The Recovery result says what happened, and
// World returns the recovered world, which the store keeps as its own.
func Open(opts Options) (*DiskStore, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: no data directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	s := &DiskStore{
		opts:    opts,
		ckCh:    make(chan struct{}, 1),
		closeCh: make(chan struct{}),
	}

	phase := time.Now()
	db, snapEpoch, snapBytes, haveSnap, err := latestSnapshot(opts.Dir)
	if err != nil {
		return nil, err
	}
	s.rec.SnapshotLoadNS = time.Since(phase).Nanoseconds()
	if haveSnap {
		s.world = db
		s.snapEpoch.Store(snapEpoch)
		s.snapBytes.Store(snapBytes)
		s.rec.SnapshotEpoch = snapEpoch
	}

	walPath := filepath.Join(opts.Dir, walName)
	data, err := os.ReadFile(walPath)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	epoch := snapEpoch
	if len(data) > 0 {
		phase = time.Now()
		recs, validEnd, torn, serr := scanWAL(data)
		if serr != nil {
			return nil, serr
		}
		s.rec.TornTail = torn
		var log *world.ChangeLog
		for _, r := range recs {
			if r.epoch <= snapEpoch {
				continue // inside the snapshot; kept for the older fallback
			}
			if s.world == nil {
				return nil, fmt.Errorf("%w: record at epoch %d in %s", ErrNoBase, r.epoch, walPath)
			}
			if log == nil {
				log = world.NewChangeLog(s.world)
			}
			if _, aerr := log.ApplyOps(r.ops); aerr != nil {
				return nil, fmt.Errorf("store: replaying wal record at epoch %d: %w", r.epoch, aerr)
			}
			s.rec.ReplayedRecords++
			s.rec.ReplayedOps += int64(len(r.ops))
			s.sinceBytes += int64(len(r.frame))
			epoch = r.epoch
		}
		if log != nil {
			log.Discard() // no views to maintain; drop the replay delta
		}
		s.rec.ReplayNS = time.Since(phase).Nanoseconds()
		if torn {
			phase = time.Now()
			if err := os.Truncate(walPath, validEnd); err != nil {
				return nil, fmt.Errorf("store: truncating torn wal tail: %w", err)
			}
			s.rec.TruncateNS = time.Since(phase).Nanoseconds()
		}
		s.walRecords.Store(s.rec.ReplayedRecords)
		s.walBytes.Store(validEnd)
		s.sinceOps = s.rec.ReplayedOps
	}
	s.rec.Epoch = epoch
	s.rec.Fresh = !haveSnap && s.walRecords.Load() == 0 && !s.rec.TornTail
	s.epoch.Store(epoch)

	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	end, err := f.Seek(0, 2)
	if err != nil {
		f.Close()
		return nil, err
	}
	if end == 0 {
		if _, err := f.Write(walHeader); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
		end = int64(len(walHeader))
	}
	s.f = f
	s.walBytes.Store(end)

	s.wg.Add(1)
	go s.background()
	return s, nil
}

// cut is a checkpoint fixed in the write sequence: a clone of the world
// at epoch, waiting to be written.
type cut struct {
	world *relstore.DB
	epoch int64
}

// background runs the interval fsync ticker and the checkpoint worker.
func (s *DiskStore) background() {
	defer s.wg.Done()
	var tick *time.Ticker
	var tickC <-chan time.Time
	if s.opts.Fsync == FsyncInterval {
		tick = time.NewTicker(syncInterval)
		tickC = tick.C
		defer tick.Stop()
	}
	for {
		select {
		case <-s.closeCh:
			return
		case <-tickC:
			s.syncIfDirty()
		case <-s.ckCh:
			s.mu.Lock()
			c := s.pending
			s.pending = nil
			s.mu.Unlock()
			if c == nil {
				continue // superseded by an explicit Checkpoint
			}
			if err := s.write(c, time.Now()); err != nil && !errors.Is(err, ErrClosed) {
				s.mu.Lock()
				s.lastErr = err.Error()
				s.mu.Unlock()
				s.logError("checkpoint", err)
			}
		}
	}
}

func (s *DiskStore) syncIfDirty() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || !s.dirty {
		return
	}
	start := time.Now()
	if err := s.f.Sync(); err != nil {
		s.lastErr = err.Error()
		s.logError("fsync", err)
		return
	}
	s.dirty = false
	if s.fsyncH != nil {
		s.fsyncH.Observe(time.Since(start).Seconds())
	}
}

// logError surfaces a background failure — which Stats.LastError records
// but nothing reports — through the configured structured logger.
func (s *DiskStore) logError(op string, err error) {
	if s.opts.Logger == nil {
		return
	}
	s.opts.Logger.LogAttrs(context.Background(), slog.LevelError, "store.background_error",
		slog.String("op", op), slog.String("error", err.Error()))
}

// Recovery reports what Open found on disk.
func (s *DiskStore) Recovery() Recovery { return s.rec }

// LastFsyncNS reports the fsync share of the most recent Append — zero
// unless the policy synced inline (FsyncAlways). Meaningful only right
// after an Append on the same serialized write path; traced writes use
// it to attribute WAL time between buffering and stable storage.
func (s *DiskStore) LastFsyncNS() int64 { return s.lastFsyncNS.Load() }

// World returns the world the store keeps: the one Seed was given, or
// the one Open recovered (nil when the store was never seeded). It is
// the caller's to serve and to write, under the rules in DiskStore.
func (s *DiskStore) World() *relstore.DB {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.world
}

// Seed keeps db as the store's world, by reference, and writes it as the
// base snapshot, so a later recovery always has a world to replay the log
// onto. The caller must not mutate db until Seed returns. Seeding a store
// that already holds a world fails with ErrSeeded.
func (s *DiskStore) Seed(db *relstore.DB, epoch int64) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if s.world != nil {
		s.mu.Unlock()
		return ErrSeeded
	}
	s.world = db
	s.epoch.Store(epoch)
	s.mu.Unlock()
	size, err := writeSnapshot(s.opts.Dir, epoch, db)
	if err != nil {
		return err
	}
	s.snapEpoch.Store(epoch)
	s.snapBytes.Store(size)
	return nil
}

// Append durably logs one committed op batch, stamped with the data
// epoch it produces. It applies nothing: the caller applies ops to the
// world only after Append returned, so the log is never behind the world
// it describes. Epochs must strictly increase; an error means nothing was
// committed and the write must fail.
func (s *DiskStore) Append(epoch int64, ops []world.Op) error {
	start := time.Now()
	frame := appendFrame(nil, encodePayload(epoch, ops))

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	prev := s.epoch.Load()
	if _, err := s.f.Write(frame); err != nil {
		// A partial frame write leaves a torn tail; the CRC framing makes
		// the next recovery drop it, so the store stays usable only if we
		// rewind. Truncate back to the pre-append length.
		if serr := s.f.Truncate(s.walBytes.Load()); serr == nil {
			_, _ = s.f.Seek(0, 2)
		}
		return fmt.Errorf("store: wal append: %w", err)
	}
	if s.opts.Fsync == FsyncAlways {
		fstart := time.Now()
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("store: wal fsync: %w", err)
		}
		fdur := time.Since(fstart)
		s.lastFsyncNS.Store(fdur.Nanoseconds())
		if s.fsyncH != nil {
			s.fsyncH.Observe(fdur.Seconds())
		}
	} else {
		s.lastFsyncNS.Store(0)
		s.dirty = true
	}
	s.epoch.Store(epoch)
	s.walBytes.Add(int64(len(frame)))
	s.walRecords.Add(1)
	s.sinceOps += int64(len(ops))
	s.sinceBytes += int64(len(frame))
	if s.appendH != nil {
		s.appendH.Observe(time.Since(start).Seconds())
	}

	// Once the log has grown past a threshold (only meaningful once a
	// world is seeded), the checkpoint is cut here: the world is cloned
	// and the counts restart, and the worker only writes it. The caller
	// has not applied this batch yet, so the clone is the world at the
	// previous epoch and this record stays in the tail. Which writes a
	// checkpoint covers and when the next one is due therefore follow
	// from the writes alone, never from how soon the worker runs or how
	// long a snapshot takes to write.
	if s.world != nil && s.checkpointDue() {
		s.pending = &cut{world: s.world.Clone(), epoch: prev}
		s.sinceOps, s.sinceBytes = 0, 0
		select {
		case s.ckCh <- struct{}{}:
		default:
		}
	}
	return nil
}

// checkpointDue is called with mu held.
func (s *DiskStore) checkpointDue() bool {
	return (s.opts.CheckpointOps > 0 && s.sinceOps >= s.opts.CheckpointOps) ||
		(s.opts.CheckpointBytes > 0 && s.sinceBytes >= s.opts.CheckpointBytes)
}

// Checkpoint snapshots the world at the epoch of the last Append and
// drops the covered log prefix, so the caller must have applied every
// appended batch and must not write the world until the clone is taken.
// The clone happens under the store's lock but the snapshot write does
// not, so appends only stall for the clone and the log rewrite. It
// supersedes a cut the worker has not taken yet.
func (s *DiskStore) Checkpoint() error {
	start := time.Now()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if s.world == nil {
		s.mu.Unlock()
		return fmt.Errorf("store: checkpoint without a seeded world")
	}
	c := &cut{world: s.world.Clone(), epoch: s.epoch.Load()}
	s.sinceOps, s.sinceBytes = 0, 0
	s.pending = nil
	s.mu.Unlock()
	return s.write(c, start)
}

// write dumps a cut to a snapshot file and drops the log prefix it
// covers.
func (s *DiskStore) write(c *cut, start time.Time) error {
	epoch := c.epoch
	size, err := writeSnapshot(s.opts.Dir, epoch, c.world)
	if err != nil {
		return err
	}

	// Drop the snapshots the new one supersedes, keeping the newest older
	// one as a fallback, then rewrite the log keeping the records past
	// that fallback: recovery from either snapshot replays an unbroken
	// tail. Appends racing this section are excluded by mu, so the kept
	// tail is exact.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	from := pruneSnapshots(s.opts.Dir, epoch)
	if err := s.rewriteTailLocked(from, epoch); err != nil {
		return err
	}
	s.snapEpoch.Store(epoch)
	s.snapBytes.Store(size)
	s.checkpoints.Add(1)
	s.lastCkUnix.Store(time.Now().Unix())
	if s.ckH != nil {
		s.ckH.Observe(time.Since(start).Seconds())
	}
	return nil
}

// rewriteTailLocked rebuilds wal.log with only the records newer than
// from, atomically replacing the old file; the records newer than epoch,
// the snapshot just written, are the tail a restart replays. Called with
// mu held.
func (s *DiskStore) rewriteTailLocked(from, epoch int64) error {
	walPath := filepath.Join(s.opts.Dir, walName)
	if err := s.f.Sync(); err != nil { // everything appended so far must be readable
		return err
	}
	data, err := os.ReadFile(walPath)
	if err != nil {
		return err
	}
	recs, _, _, err := scanWAL(data)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.opts.Dir, walName+".tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	var tail int64
	out := append([]byte(nil), walHeader...)
	for _, r := range recs {
		if r.epoch > from {
			out = append(out, r.frame...)
		}
		if r.epoch > epoch {
			tail++
		}
	}
	if _, err := tmp.Write(out); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), walPath); err != nil {
		return err
	}
	if err := syncDir(s.opts.Dir); err != nil {
		return err
	}
	old := s.f
	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return err
	}
	old.Close()
	s.f = f
	s.dirty = false
	s.walBytes.Store(int64(len(out)))
	s.walRecords.Store(tail)
	return nil
}

// Stats returns the durability counters for /statusz and /healthz.
func (s *DiskStore) Stats() Stats {
	st := Stats{
		Dir:           s.opts.Dir,
		Fsync:         s.opts.Fsync.String(),
		Epoch:         s.epoch.Load(),
		WALBytes:      s.walBytes.Load(),
		WALRecords:    s.walRecords.Load(),
		SnapshotEpoch: s.snapEpoch.Load(),
		SnapshotBytes: s.snapBytes.Load(),
		Checkpoints:   s.checkpoints.Load(),
	}
	if ck := s.lastCkUnix.Load(); ck > 0 {
		st.LastCheckpointS = time.Since(time.Unix(ck, 0)).Seconds()
	}
	s.mu.Lock()
	st.LastError = s.lastErr
	s.mu.Unlock()
	return st
}

// RegisterMetrics publishes the store's instrumentation into reg: the
// wal append and fsync latency histograms, checkpoint counters, and
// scrape-time gauges over log size and epochs. Call it once, before the
// first Append.
func (s *DiskStore) RegisterMetrics(reg *metrics.Registry) {
	buckets := metrics.ExponentialBuckets(1e-6, 4, 12)
	s.appendH = reg.NewHistogram("factordb_wal_append_seconds",
		"wal record append latency (framing + write + policy fsync)", buckets)
	s.fsyncH = reg.NewHistogram("factordb_wal_fsync_seconds",
		"wal fsync latency (per append under fsync=always, per tick under interval)", buckets)
	s.ckH = reg.NewHistogram("factordb_checkpoint_seconds",
		"checkpoint latency (world clone + snapshot write + log rewrite)", nil)
	reg.NewGaugeFunc("factordb_wal_size_bytes", "wal file size, header included",
		func() float64 { return float64(s.walBytes.Load()) })
	reg.NewGaugeFunc("factordb_wal_records", "wal records currently on disk",
		func() float64 { return float64(s.walRecords.Load()) })
	reg.NewGaugeFunc("factordb_checkpoints_total", "checkpoints completed since open",
		func() float64 { return float64(s.checkpoints.Load()) })
	reg.NewGaugeFunc("factordb_snapshot_bytes", "size of the newest snapshot file",
		func() float64 { return float64(s.snapBytes.Load()) })
	reg.NewGaugeFunc("factordb_last_checkpoint_epoch", "data epoch the newest snapshot covers",
		func() float64 { return float64(s.snapEpoch.Load()) })
	reg.NewGaugeFunc("factordb_durable_epoch", "data epoch of the durable world (snapshot + wal)",
		func() float64 { return float64(s.epoch.Load()) })
}

// Close flushes the log and releases the store; later Appends fail.
func (s *DiskStore) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.closeCh)
	s.mu.Unlock()
	s.wg.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.dirty {
		err = s.f.Sync()
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}
