package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"factordb/internal/ie"
	"factordb/internal/metrics"
	"factordb/internal/relstore"
	"factordb/internal/world"
)

// snap1History is the write history behind testdata/snap1: testWorld
// seeded at epoch 0, then one batch per epoch from 1. The directory was
// written by the store while it still wrote snap1 snapshots, with a
// checkpoint cut at snap1Checkpoint, so it holds the seed snapshot, the
// checkpoint and a log tail of the batches after it. The batches leave a tombstone, a FLOAT column
// holding an int, a BOOL flipped and a string no live row holds.
func snap1History() [][]world.Op {
	return [][]world.Op{
		{updateOp(1, "alpha"), insertOp(100, "beta")},
		{deleteOp(2), updateOp(4, "w")},
		{{Kind: world.OpUpdate, Rel: "TOKEN", Row: 5, Cols: []int{2, 3},
			Vals: []relstore.Value{relstore.Int(7), relstore.Bool(true)}}},
		{updateOp(1, "gamma"), deleteOp(8)},
		{insertOp(101, "delta")},
	}
}

const snap1Checkpoint = 3

// snap1World is the dump of testWorld after the first epochs batches of
// snap1History.
func snap1World(t *testing.T, epochs int) []byte {
	t.Helper()
	db := testWorld(t)
	log := world.NewChangeLog(db)
	for _, ops := range snap1History()[:epochs] {
		if _, err := log.ApplyOps(ops); err != nil {
			t.Fatal(err)
		}
	}
	return dump(t, db)
}

// copyDir copies the flat directory src into a new temporary one.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		write(t, filepath.Join(dst, e.Name()), read(t, filepath.Join(src, e.Name())))
	}
	return dst
}

// TestRecoversSnap1Directory: a data directory written before snapshots
// went columnar — gob snapshots under the "snap1:" header and a log tail —
// recovers to the world and epoch it recorded, the next checkpoint writes
// "snap2:", which recovers the same, and a rotted snap2 file falls back
// to the snap1 one it superseded, whose log tail the checkpoint kept, so
// the fallback recovers the same world and epoch too.
func TestRecoversSnap1Directory(t *testing.T) {
	dir := copyDir(t, "testdata/snap1")
	last := int64(len(snap1History()))
	want := snap1World(t, len(snap1History()))

	s := openStore(t, dir, Options{Fsync: FsyncNever, CheckpointOps: -1, CheckpointBytes: -1})
	rec := s.Recovery()
	if rec.SnapshotEpoch != snap1Checkpoint || rec.Epoch != last || rec.ReplayedRecords != last-snap1Checkpoint {
		t.Fatalf("recovery %+v, want snapshot %d, epoch %d", rec, snap1Checkpoint, last)
	}
	if !bytes.Equal(dump(t, s.WorldClone()), want) {
		t.Fatal("the snap1 directory recovered another world")
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	names, err := snapshotNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	newest := filepath.Join(dir, snapshotName(last))
	if len(names) != 2 || names[0] != snapshotName(snap1Checkpoint) || names[1] != filepath.Base(newest) {
		t.Fatalf("snapshots after the checkpoint: %v", names)
	}
	if !bytes.HasPrefix(read(t, newest), snapHeader) {
		t.Fatalf("the checkpoint was not written as %q", snapHeader)
	}

	r := openStore(t, dir, Options{})
	if rec := r.Recovery(); rec.SnapshotEpoch != last || rec.Epoch != last || rec.ReplayedRecords != 0 {
		t.Fatalf("recovery from snap2 %+v, want snapshot and epoch %d", rec, last)
	}
	if !bytes.Equal(dump(t, r.WorldClone()), want) {
		t.Fatal("the snap2 checkpoint recovered another world")
	}
	r.Close()

	data := read(t, newest)
	data[len(data)/2] ^= 0xFF
	write(t, newest, data)
	f := openStore(t, dir, Options{})
	if rec := f.Recovery(); rec.SnapshotEpoch != snap1Checkpoint || rec.Epoch != last || rec.ReplayedRecords != last-snap1Checkpoint {
		t.Fatalf("fallback recovery %+v, want the snap1 checkpoint at %d replayed to epoch %d", rec, snap1Checkpoint, last)
	}
	if !bytes.Equal(dump(t, f.WorldClone()), want) {
		t.Fatal("the snap1 fallback recovered another world")
	}
}

// TestSnapshotBytesStat: Stats and the factordb_snapshot_bytes gauge
// report the size of the newest snapshot file, written or loaded.
func TestSnapshotBytesStat(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{Fsync: FsyncNever})
	reg := metrics.NewRegistry()
	s.RegisterMetrics(reg)
	fileSize := func(epoch int64) int64 {
		fi, err := os.Stat(filepath.Join(dir, snapshotName(epoch)))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	if got := s.Stats().SnapshotBytes; got != 0 {
		t.Fatalf("fresh store reports a %d-byte snapshot", got)
	}
	if err := s.Seed(testWorld(t), 0); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Stats().SnapshotBytes, fileSize(0); got != want {
		t.Fatalf("after Seed: %d bytes, the file holds %d", got, want)
	}
	if err := s.Append(1, []world.Op{insertOp(100, strings.Repeat("x", 500))}); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := fileSize(1)
	if got := s.Stats().SnapshotBytes; got != want || want <= fileSize(0) {
		t.Fatalf("after a checkpoint: %d bytes, the file holds %d", got, want)
	}
	var text bytes.Buffer
	reg.WriteText(&text)
	if line := "factordb_snapshot_bytes " + strconv.FormatInt(want, 10); !strings.Contains(text.String(), line+"\n") {
		t.Errorf("metrics lack %q:\n%s", line, text.String())
	}
	s.Close()
	if got := openStore(t, dir, Options{}).Stats().SnapshotBytes; got != want {
		t.Fatalf("after reopening: %d bytes, the file holds %d", got, want)
	}
}

// BenchmarkCheckpoint measures what a checkpoint of a 50 000-token NER
// world costs: writing its snapshot file, and reading it back as
// recovery does.
func BenchmarkCheckpoint(b *testing.B) {
	if testing.Short() {
		b.Skip("corpus building is expensive; skipped in -short mode")
	}
	corpus, err := ie.Generate(ie.DefaultGenConfig(50_000, 1))
	if err != nil {
		b.Fatal(err)
	}
	db := relstore.NewDB()
	if _, err := ie.LoadCorpus(db, corpus, ie.LO); err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	b.Run("write", func(b *testing.B) {
		b.ReportAllocs()
		var size int64
		for i := 0; i < b.N; i++ {
			if size, err = writeSnapshot(dir, 1, db); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(size), "file_bytes")
	})
	b.Run("recover", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := readSnapshot(filepath.Join(dir, snapshotName(1))); err != nil {
				b.Fatal(err)
			}
		}
	})
}
