package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"factordb/internal/relstore"
	"factordb/internal/world"
)

// testWorld builds a tiny two-relation world with every value type.
func testWorld(t *testing.T) *relstore.DB {
	t.Helper()
	db := relstore.NewDB()
	tok, err := relstore.NewSchema("TOKEN",
		relstore.Column{Name: "TOK_ID", Type: relstore.TInt},
		relstore.Column{Name: "STRING", Type: relstore.TString},
		relstore.Column{Name: "SCORE", Type: relstore.TFloat},
		relstore.Column{Name: "GOLD", Type: relstore.TBool},
	)
	if err != nil {
		t.Fatal(err)
	}
	rel := db.MustCreate(tok)
	for i := 0; i < 8; i++ {
		_, err := rel.Insert(relstore.Tuple{
			relstore.Int(int64(i)), relstore.String("w"), relstore.Float(0.5), relstore.Bool(i%2 == 0),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// dump renders a world to bytes for byte-identity comparisons.
func dump(t *testing.T, db *relstore.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// updateOp builds a single-row STRING update against TOKEN.
func updateOp(row int64, s string) world.Op {
	return world.Op{Kind: world.OpUpdate, Rel: "TOKEN", Row: relstore.RowID(row),
		Cols: []int{1}, Vals: []relstore.Value{relstore.String(s)}}
}

func insertOp(id int64, s string) world.Op {
	return world.Op{Kind: world.OpInsert, Rel: "TOKEN", Vals: relstore.Tuple{
		relstore.Int(id), relstore.String(s), relstore.Float(1.25), relstore.Bool(true),
	}}
}

func deleteOp(row int64) world.Op {
	return world.Op{Kind: world.OpDelete, Rel: "TOKEN", Row: relstore.RowID(row)}
}

func openStore(t *testing.T, dir string, opts Options) *DiskStore {
	t.Helper()
	opts.Dir = dir
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPayloadRoundTrip(t *testing.T) {
	ops := []world.Op{
		insertOp(100, "añ\x00ẞ"), // exercise non-ASCII and NUL bytes
		updateOp(3, "Boston"),
		deleteOp(5),
		{Kind: world.OpUpdate, Rel: "R", Row: 7, Cols: []int{0, 2},
			Vals: []relstore.Value{relstore.Float(-0.25), relstore.Bool(false)}},
	}
	epoch, got, err := decodePayload(encodePayload(42, ops))
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 42 {
		t.Fatalf("epoch %d, want 42", epoch)
	}
	if len(got) != len(ops) {
		t.Fatalf("got %d ops, want %d", len(got), len(ops))
	}
	for i, op := range got {
		want := ops[i]
		if op.Kind != want.Kind || op.Rel != want.Rel || op.Row != want.Row ||
			len(op.Cols) != len(want.Cols) || len(op.Vals) != len(want.Vals) {
			t.Fatalf("op %d: %+v, want %+v", i, op, want)
		}
		for j := range op.Vals {
			if !op.Vals[j].Equal(want.Vals[j]) || op.Vals[j].Kind() != want.Vals[j].Kind() {
				t.Fatalf("op %d val %d: %v, want %v", i, j, op.Vals[j], want.Vals[j])
			}
		}
	}
}

// TestReopenRestoresWorldAndEpoch is the core durability contract:
// seed, append, close, reopen — the recovered world is byte-identical
// to the in-memory one and the epoch survives.
func TestReopenRestoresWorldAndEpoch(t *testing.T) {
	dir := t.TempDir()
	db := testWorld(t)
	s := openStore(t, dir, Options{Fsync: FsyncNever})
	if !s.Recovery().Fresh {
		t.Fatal("new directory should recover as fresh")
	}
	if err := s.Seed(db, 0); err != nil {
		t.Fatal(err)
	}
	log := world.NewChangeLog(db)
	for i := int64(1); i <= 5; i++ {
		ops := []world.Op{updateOp(i, "v"), insertOp(100+i, "new")}
		if err := s.Append(i, ops); err != nil {
			t.Fatal(err)
		}
		if _, err := log.ApplyOps(ops); err != nil {
			t.Fatal(err)
		}
	}
	want := dump(t, db)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openStore(t, dir, Options{})
	rec := r.Recovery()
	if rec.Epoch != 5 || rec.ReplayedRecords != 5 || rec.ReplayedOps != 10 || rec.TornTail || rec.Fresh {
		t.Fatalf("recovery %+v, want epoch 5, 5 records, 10 ops, no torn tail", rec)
	}
	got := r.World()
	if got == nil {
		t.Fatal("no recovered world")
	}
	if !bytes.Equal(dump(t, got), want) {
		t.Fatal("recovered world differs from the world at close")
	}
}

// TestCheckpointReplaysOnlyTail: after a checkpoint, reopening must
// replay only records past the snapshot epoch, and the wal must have
// dropped the prefix the kept fallback snapshot covers: the first
// checkpoint keeps the seed snapshot and so every record, the second
// keeps the first and drops the records it covers.
func TestCheckpointReplaysOnlyTail(t *testing.T) {
	dir := t.TempDir()
	db := testWorld(t)
	s := openStore(t, dir, Options{Fsync: FsyncNever})
	if err := s.Seed(db, 0); err != nil {
		t.Fatal(err)
	}
	log := world.NewChangeLog(db)
	apply := func(epoch int64) {
		ops := []world.Op{updateOp(epoch%8, "ck")}
		if err := s.Append(epoch, ops); err != nil {
			t.Fatal(err)
		}
		if _, err := log.ApplyOps(ops); err != nil {
			t.Fatal(err)
		}
	}
	for e := int64(1); e <= 6; e++ {
		apply(e)
	}
	preBytes := s.Stats().WALBytes
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.SnapshotEpoch != 6 || st.WALRecords != 0 || st.WALBytes != preBytes {
		t.Fatalf("after checkpoint: %+v, want snapshot epoch 6, no tail and the seed's %d wal bytes kept", st, preBytes)
	}
	for e := int64(7); e <= 9; e++ {
		apply(e)
	}
	preBytes = s.Stats().WALBytes
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.SnapshotEpoch != 9 || st.WALRecords != 0 {
		t.Fatalf("after checkpoint: %+v, want snapshot epoch 9 and no tail", st)
	}
	if st.WALBytes >= preBytes {
		t.Fatalf("checkpoint did not shrink the wal: %d -> %d bytes", preBytes, st.WALBytes)
	}
	if names, _ := snapshotNames(dir); len(names) != 2 || names[0] != snapshotName(6) {
		t.Fatalf("snapshots %v, want the checkpoints at 6 and 9", names)
	}
	for e := int64(10); e <= 12; e++ {
		apply(e)
	}
	want := dump(t, db)
	s.Close()

	r := openStore(t, dir, Options{})
	rec := r.Recovery()
	if rec.SnapshotEpoch != 9 || rec.Epoch != 12 || rec.ReplayedRecords != 3 {
		t.Fatalf("recovery %+v, want snapshot 9, epoch 12, 3 tail records", rec)
	}
	if !bytes.Equal(dump(t, r.World()), want) {
		t.Fatal("recovered world differs after checkpoint + tail replay")
	}
	if st := r.Stats(); st.WALRecords != 3 {
		t.Fatalf("reopened store reports %d wal records, want the 3-record tail", st.WALRecords)
	}
}

// TestOpCountTriggersCheckpoint: steady writes must keep the log
// bounded without any explicit Checkpoint call.
func TestOpCountTriggersCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db := testWorld(t)
	s := openStore(t, dir, Options{Fsync: FsyncNever, CheckpointOps: 4, CheckpointBytes: -1})
	if err := s.Seed(db, 0); err != nil {
		t.Fatal(err)
	}
	log := world.NewChangeLog(db)
	for e := int64(1); e <= 40; e++ {
		ops := []world.Op{updateOp(e%8, "auto")}
		if err := s.Append(e, ops); err != nil {
			t.Fatal(err)
		}
		if _, err := log.ApplyOps(ops); err != nil {
			t.Fatal(err)
		}
	}
	// The checkpoint worker is asynchronous; Close drains it, and the
	// final Stats must show at least one checkpoint and a bounded tail.
	deadline := 200
	for s.Stats().Checkpoints == 0 && deadline > 0 {
		deadline--
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		break
	}
	st := s.Stats()
	if st.Checkpoints == 0 {
		t.Fatal("no checkpoint ran")
	}
	if st.LastError != "" {
		t.Fatalf("background error: %s", st.LastError)
	}
	if st.WALRecords >= 40 {
		t.Fatalf("wal never truncated: %d records", st.WALRecords)
	}
}

// TestCheckpointCutByWrites: a background checkpoint covers exactly the
// writes before the one that crossed the threshold — the caller applies
// that one only after its Append, so it stays in the log tail — however
// far the worker lags behind the writes racing it, and writes that land
// while a snapshot is being written never start a redundant one. So which
// writes each checkpoint covers, and how many checkpoints a run of writes
// makes, follow from the writes alone.
func TestCheckpointCutByWrites(t *testing.T) {
	const every, writes = 4, 40
	db := testWorld(t)
	// Enough rows that writing a snapshot takes longer than the writes
	// racing it.
	rel, err := db.Relation("TOKEN")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(8); i < 20_000; i++ {
		if _, err := rel.Insert(relstore.Tuple{relstore.Int(i), relstore.String("w"), relstore.Float(0.5), relstore.Bool(false)}); err != nil {
			t.Fatal(err)
		}
	}
	s := openStore(t, t.TempDir(), Options{Fsync: FsyncNever, CheckpointOps: every, CheckpointBytes: -1})
	if err := s.Seed(db, 0); err != nil {
		t.Fatal(err)
	}
	log := world.NewChangeLog(db)
	for e := int64(1); e <= writes; e++ {
		ops := []world.Op{updateOp(e%8, "auto")}
		if err := s.Append(e, ops); err != nil {
			t.Fatal(err)
		}
		if _, err := log.ApplyOps(ops); err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		since := s.sinceOps
		s.mu.Unlock()
		if since != e%every {
			t.Fatalf("after write %d: %d ops count toward the next checkpoint, want %d", e, since, e%every)
		}
		if got := s.Stats().SnapshotEpoch; got != 0 && (got+1)%every != 0 {
			t.Fatalf("after write %d: snapshot at epoch %d, want one short of a multiple of %d", e, got, every)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().WALRecords != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	st := s.Stats()
	if st.SnapshotEpoch != writes-1 || st.WALRecords != 1 || st.LastError != "" {
		t.Fatalf("after the last cut: %+v, want snapshot epoch %d and the last write alone in the log", st, writes-1)
	}
	if st.Checkpoints > writes/every {
		t.Fatalf("%d checkpoints for %d cuts", st.Checkpoints, writes/every)
	}
}

// TestAutoCutLeavesItsRecordInTheTail pins the WAL-first order of an
// automatic checkpoint: the caller applies a batch only after its Append
// returned, so the cut that batch makes due is the world at the epoch
// before it, and the batch stays in the log tail. A reopen replays it
// exactly once: an INSERT replayed twice would add its row twice.
func TestAutoCutLeavesItsRecordInTheTail(t *testing.T) {
	dir := t.TempDir()
	db := testWorld(t)
	s := openStore(t, dir, Options{Fsync: FsyncNever, CheckpointOps: 2, CheckpointBytes: -1})
	if err := s.Seed(db, 0); err != nil {
		t.Fatal(err)
	}
	if s.World() != db {
		t.Fatal("the store does not keep the seeded world")
	}
	log := world.NewChangeLog(db)
	for e, ops := range [][]world.Op{
		{updateOp(1, "before")},
		{insertOp(200, "inserted"), updateOp(3, "due")}, // the second op makes the cut due
	} {
		if err := s.Append(int64(e+1), ops); err != nil {
			t.Fatal(err)
		}
		if _, err := log.ApplyOps(ops); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Checkpoints == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := s.Stats(); st.Checkpoints != 1 || st.SnapshotEpoch != 1 || st.WALRecords != 1 || st.LastError != "" {
		t.Fatalf("after the cut: %+v, want one checkpoint at epoch 1 and record 2 alone in the tail", st)
	}
	want := dump(t, db)
	tok, _ := db.Relation("TOKEN")
	s.Close()

	r := openStore(t, dir, Options{})
	rec := r.Recovery()
	if rec.SnapshotEpoch != 1 || rec.Epoch != 2 || rec.ReplayedRecords != 1 || rec.ReplayedOps != 2 {
		t.Fatalf("recovery %+v, want snapshot 1 and record 2 replayed once", rec)
	}
	got, _ := r.World().Relation("TOKEN")
	if got.Len() != tok.Len() || got.Len() != 9 {
		t.Fatalf("recovered %d rows, the caller's world holds %d (want 9)", got.Len(), tok.Len())
	}
	if !bytes.Equal(dump(t, r.World()), want) {
		t.Fatal("recovered world differs from the caller's")
	}
}

// corruptTailCase mutilates a valid log and says what recovery must
// still see.
type corruptTailCase struct {
	name string
	// lost reports whether the mangling destroys the final record (as
	// opposed to appending garbage after it, which keeps all records).
	lost   bool
	mangle func(t *testing.T, walPath string)
}

// TestCorruptWALTails: truncated record, bad CRC and trailing garbage
// must all recover cleanly to the last valid record — no panic, epoch
// correct, and the next store usable for appends.
func TestCorruptWALTails(t *testing.T) {
	cases := []corruptTailCase{
		{"truncated-frame-header", true, func(t *testing.T, p string) {
			chop(t, p, 3) // leaves a partial length prefix
		}},
		{"truncated-payload", true, func(t *testing.T, p string) {
			data := read(t, p)
			chop(t, p, lastFrameLen(t, data)-5) // frame header intact, payload cut
		}},
		{"bad-crc", true, func(t *testing.T, p string) {
			data := read(t, p)
			data[len(data)-1] ^= 0xFF // flip a payload bit of the final record
			write(t, p, data)
		}},
		{"trailing-garbage", false, func(t *testing.T, p string) {
			data := append(read(t, p), []byte("!!garbage that is no frame!!")...)
			write(t, p, data)
		}},
		{"garbage-length-prefix", false, func(t *testing.T, p string) {
			data := append(read(t, p), 0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4, 5, 6, 7, 8)
			write(t, p, data)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			db := testWorld(t)
			s := openStore(t, dir, Options{Fsync: FsyncNever})
			if err := s.Seed(db, 0); err != nil {
				t.Fatal(err)
			}
			log := world.NewChangeLog(db)
			for e := int64(1); e <= 3; e++ {
				ops := []world.Op{updateOp(e, "good")}
				if err := s.Append(e, ops); err != nil {
					t.Fatal(err)
				}
				if _, err := log.ApplyOps(ops); err != nil {
					t.Fatal(err)
				}
			}
			good := dump(t, db) // world before the record the mangling may destroy
			badOps := []world.Op{updateOp(7, "doomed")}
			if err := s.Append(4, badOps); err != nil {
				t.Fatal(err)
			}
			if _, err := log.ApplyOps(badOps); err != nil {
				t.Fatal(err)
			}
			if !tc.lost {
				good = dump(t, db) // garbage-after cases keep record 4
			}
			s.Close()

			walPath := filepath.Join(dir, walName)
			tc.mangle(t, walPath)

			wantEpoch, wantRecs := int64(4), int64(4)
			if tc.lost {
				wantEpoch, wantRecs = 3, 3
			}
			r := openStore(t, dir, Options{Fsync: FsyncNever})
			rec := r.Recovery()
			if !rec.TornTail {
				t.Fatalf("recovery %+v: torn tail not reported", rec)
			}
			if rec.Epoch != wantEpoch || rec.ReplayedRecords != wantRecs {
				t.Fatalf("recovery %+v, want epoch %d from %d records", rec, wantEpoch, wantRecs)
			}
			if !bytes.Equal(dump(t, r.World()), good) {
				t.Fatal("recovered world is not the last-valid-record world")
			}
			// The torn tail is gone: appending and reopening must work.
			w := r.World()
			wlog := world.NewChangeLog(w)
			ops := []world.Op{updateOp(2, "after")}
			if err := r.Append(wantEpoch+1, ops); err != nil {
				t.Fatal(err)
			}
			if _, err := wlog.ApplyOps(ops); err != nil {
				t.Fatal(err)
			}
			want := dump(t, w)
			r.Close()
			r2 := openStore(t, dir, Options{})
			if rec := r2.Recovery(); rec.TornTail || rec.Epoch != wantEpoch+1 {
				t.Fatalf("second recovery %+v, want clean epoch %d", rec, wantEpoch+1)
			}
			if !bytes.Equal(dump(t, r2.World()), want) {
				t.Fatal("world after post-corruption append did not survive")
			}
		})
	}
}

// TestFsyncPolicies: every policy must keep the same recovery
// semantics on a clean close.
func TestFsyncPolicies(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(p.String(), func(t *testing.T) {
			dir := t.TempDir()
			db := testWorld(t)
			s := openStore(t, dir, Options{Fsync: p})
			if err := s.Seed(db, 0); err != nil {
				t.Fatal(err)
			}
			log := world.NewChangeLog(db)
			ops := []world.Op{updateOp(1, "x")}
			if err := s.Append(1, ops); err != nil {
				t.Fatal(err)
			}
			if _, err := log.ApplyOps(ops); err != nil {
				t.Fatal(err)
			}
			if got := s.Stats().Fsync; got != p.String() {
				t.Fatalf("Stats.Fsync = %q, want %q", got, p)
			}
			s.Close()
			r := openStore(t, dir, Options{})
			if rec := r.Recovery(); rec.Epoch != 1 {
				t.Fatalf("epoch %d under policy %v, want 1", rec.Epoch, p)
			}
		})
	}
}

// TestSeedTwiceFails pins the single-seed contract.
func TestSeedTwiceFails(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	if err := s.Seed(testWorld(t), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Seed(testWorld(t), 0); !errors.Is(err, ErrSeeded) {
		t.Fatalf("second seed: %v, want ErrSeeded", err)
	}
}

// TestWALWithoutSnapshotRefused: log records with no base world are an
// incomplete store, not a silent empty recovery.
func TestWALWithoutSnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{Fsync: FsyncNever})
	if err := s.Append(1, []world.Op{updateOp(0, "x")}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := Open(Options{Dir: dir}); !errors.Is(err, ErrNoBase) {
		t.Fatalf("open: %v, want ErrNoBase", err)
	}
}

// TestCorruptLatestSnapshotFallsBack: a bit-rotted newest snapshot must
// not lose the store. The checkpoint kept the older snapshot and the log
// records past it, so recovery from the older one replays an unbroken
// tail and reaches the same world and epoch.
func TestCorruptLatestSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	db := testWorld(t)
	s := openStore(t, dir, Options{Fsync: FsyncNever})
	if err := s.Seed(db, 0); err != nil {
		t.Fatal(err)
	}
	log := world.NewChangeLog(db)
	for e := int64(1); e <= 2; e++ {
		ops := []world.Op{updateOp(e, "snapfall")}
		if err := s.Append(e, ops); err != nil {
			t.Fatal(err)
		}
		if _, err := log.ApplyOps(ops); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := dump(t, db)
	s.Close()

	names, err := snapshotNames(dir)
	if err != nil || len(names) == 0 {
		t.Fatalf("no snapshots: %v", err)
	}
	newest := filepath.Join(dir, names[len(names)-1])
	data := read(t, newest)
	data[len(data)-1] ^= 0xFF
	write(t, newest, data)

	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("open after snapshot rot: %v", err)
	}
	defer r.Close()
	rec := r.Recovery()
	// The fallback loaded the older snapshot, never the rotted one, and
	// replayed the log from there.
	if rec.SnapshotEpoch != 0 || rec.Epoch != 2 || rec.ReplayedRecords != 2 {
		t.Fatalf("fallback recovery %+v, want snapshot 0 replayed to epoch 2", rec)
	}
	if !bytes.Equal(dump(t, r.World()), want) {
		t.Fatal("the fallback recovered another world")
	}
}

// ---- helpers ----

func read(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func write(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func chop(t *testing.T, path string, n int) {
	t.Helper()
	data := read(t, path)
	if n <= 0 || n >= len(data) {
		t.Fatalf("cannot chop %d of %d bytes", n, len(data))
	}
	write(t, path, data[:len(data)-n])
}

// lastFrameLen returns the on-disk size of the final record's frame.
func lastFrameLen(t *testing.T, data []byte) int {
	t.Helper()
	recs, _, torn, err := scanWAL(data)
	if err != nil || torn || len(recs) == 0 {
		t.Fatalf("scan: %v (torn=%v, %d recs)", err, torn, len(recs))
	}
	return len(recs[len(recs)-1].frame)
}
