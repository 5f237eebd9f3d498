package store

import (
	"bytes"
	"maps"
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

// readDir returns the contents of every file in the flat directory dir.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		files[e.Name()] = read(t, filepath.Join(dir, e.Name()))
	}
	return files
}

// copyDir copies the flat directory src into a new temporary one.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	for name, data := range readDir(t, src) {
		write(t, filepath.Join(dst, name), data)
	}
	return dst
}

// TestRefusesSnap1Directory: a data directory written before snapshots
// went columnar — gob snapshots under the "snap1:" header and a log tail
// — is refused, not misread. The error names the retired format and the
// way to convert it, and the refused Open leaves every file as it was.
func TestRefusesSnap1Directory(t *testing.T) {
	dir := copyDir(t, "testdata/snap1")
	before := readDir(t, dir)
	s, err := Open(Options{Dir: dir})
	if err == nil {
		s.Close()
		t.Fatal("Open recovered a snap1 directory")
	}
	for _, want := range []string{`"snap1:"`, "no longer read", "DB.Checkpoint"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Open error %q does not mention %s", err, want)
		}
	}
	if after := readDir(t, dir); !maps.EqualFunc(before, after, bytes.Equal) {
		t.Error("the refused Open changed the directory")
	}
}

// TestMostlyDeletedWorldCheckpoints: a world that deleted all but 5 of
// the 70 008 rows it held still checkpoints, and the checkpoint recovers
// it byte for byte.
func TestMostlyDeletedWorldCheckpoints(t *testing.T) {
	world70k := func() *relstore.DB {
		db := testWorld(t)
		tok, _ := db.Relation("TOKEN")
		for i := 0; i < 70_000; i++ {
			if _, err := tok.Insert(relstore.Tuple{relstore.Int(int64(100 + i)), relstore.String("x"),
				relstore.Float(float64(i)), relstore.Bool(i%2 == 0)}); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	var ops []world.Op
	for id := int64(5); id < 70_008; id++ {
		ops = append(ops, deleteOp(id))
	}
	want := world70k()
	if _, err := world.NewChangeLog(want).ApplyOps(ops); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	opts := Options{Fsync: FsyncNever, CheckpointOps: -1, CheckpointBytes: -1}
	s := openStore(t, dir, opts)
	seeded := world70k()
	if err := s.Seed(seeded, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(1, ops); err != nil {
		t.Fatal(err)
	}
	if _, err := world.NewChangeLog(seeded).ApplyOps(ops); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint of 5 rows over 70 008 ids: %v", err)
	}
	s.Close()

	r := openStore(t, dir, opts)
	if rec := r.Recovery(); rec.SnapshotEpoch != 1 || rec.Epoch != 1 || rec.ReplayedRecords != 0 {
		t.Fatalf("recovery %+v, want snapshot and epoch 1", rec)
	}
	if !bytes.Equal(dump(t, r.World()), dump(t, want)) {
		t.Fatal("the checkpoint recovered another world")
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
	db := testWorld(t)
	if err := s.Seed(db, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Stats().SnapshotBytes, fileSize(0); got != want {
		t.Fatalf("after Seed: %d bytes, the file holds %d", got, want)
	}
	ops := []world.Op{insertOp(100, strings.Repeat("x", 500))}
	if err := s.Append(1, ops); err != nil {
		t.Fatal(err)
	}
	if _, err := world.NewChangeLog(db).ApplyOps(ops); err != nil {
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
	if err := ie.LoadCorpus(db, corpus, ie.LO); err != nil {
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
