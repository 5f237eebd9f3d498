package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"factordb/internal/relstore"
)

// Snapshot files, version snap2. One file per checkpoint, named
// snap-<epoch %016d>.snap so lexical order is epoch order, laid out as
//
//	"snap2:"  header
//	uint64    data epoch the world includes (little endian)
//	world     relstore's columnar world dump
//	uint32    CRC-32 (IEEE) of everything above (little endian)
//
// streamed to a temp file, fsynced, then renamed into place — a crash
// mid-checkpoint leaves the previous snapshot untouched. The CRC trailer
// makes a half-written or bit-rotted snapshot detectable, in which case
// recovery falls back to the next older file. Files of the retired
// version, "snap1:", held a gob world dump; they are refused, with an
// error that says how to convert them.

var snapHeader = []byte("snap2:")

const snapSuffix = ".snap"

func snapshotName(epoch int64) string {
	return fmt.Sprintf("snap-%016d%s", epoch, snapSuffix)
}

// snapshotEpoch parses the epoch out of a snapshot file name, reporting
// ok=false for files that are not snapshots.
func snapshotEpoch(name string) (int64, bool) {
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	e, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), snapSuffix), 10, 64)
	if err != nil || e < 0 {
		return 0, false
	}
	return e, true
}

// checksummed passes writes on to a file, keeping a running CRC-32 and
// byte count of them.
type checksummed struct {
	f   *os.File
	crc hash.Hash32
	n   int64
}

func (c *checksummed) Write(p []byte) (int, error) {
	n, err := c.f.Write(p)
	c.crc.Write(p[:n])
	c.n += int64(n)
	return n, err
}

// writeSnapshot atomically persists the world at the given epoch and
// returns the file's size.
func writeSnapshot(dir string, epoch int64, db *relstore.DB) (int64, error) {
	name := snapshotName(epoch)
	tmp, err := os.CreateTemp(dir, name+".tmp")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name()) // no-op after the rename succeeds
	out := &checksummed{f: tmp, crc: crc32.NewIEEE()}
	head := binary.LittleEndian.AppendUint64(append([]byte(nil), snapHeader...), uint64(epoch))
	if _, err := out.Write(head); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := db.Dump(out); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("store: dumping world: %w", err)
	}
	if _, err := tmp.Write(binary.LittleEndian.AppendUint32(nil, out.crc.Sum32())); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		return 0, err
	}
	return out.n + 4, syncDir(dir)
}

// readSnapshot loads and verifies one snapshot file and reports its size.
func readSnapshot(path string) (*relstore.DB, int64, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, 0, err
	}
	if len(data) < len(snapHeader)+8+4 {
		return nil, 0, 0, fmt.Errorf("store: snapshot %s shorter than its framing", filepath.Base(path))
	}
	if head := data[:len(snapHeader)]; !bytes.Equal(head, snapHeader) {
		return nil, 0, 0, fmt.Errorf("store: snapshot %s opens with %q, not %q; the gob format \"snap1:\" is no longer read: "+
			"open the directory once with an earlier build that still reads snap1 and call DB.Checkpoint to rewrite it as snap2",
			filepath.Base(path), head, snapHeader)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, 0, 0, fmt.Errorf("store: snapshot %s failed its CRC", filepath.Base(path))
	}
	epoch := int64(binary.LittleEndian.Uint64(body[len(snapHeader):]))
	db, err := relstore.DecodeDB(body[len(snapHeader)+8:])
	if err != nil {
		return nil, 0, 0, fmt.Errorf("store: snapshot %s: %w", filepath.Base(path), err)
	}
	return db, epoch, int64(len(data)), nil
}

// latestSnapshot loads the newest readable snapshot in dir, trying
// older files when the newest fails verification. ok=false means no
// usable snapshot exists (fresh directory, or every candidate corrupt —
// the error reports the newest failure in that case).
func latestSnapshot(dir string) (db *relstore.DB, epoch, size int64, ok bool, err error) {
	names, err := snapshotNames(dir)
	if err != nil {
		return nil, 0, 0, false, err
	}
	var firstErr error
	for i := len(names) - 1; i >= 0; i-- {
		db, epoch, size, rerr := readSnapshot(filepath.Join(dir, names[i]))
		if rerr == nil {
			return db, epoch, size, true, nil
		}
		if firstErr == nil {
			firstErr = rerr
		}
	}
	return nil, 0, 0, false, firstErr
}

// snapshotNames lists snapshot basenames in ascending epoch order.
func snapshotNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if _, ok := snapshotEpoch(e.Name()); ok && !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// pruneSnapshots deletes the snapshots older than epoch except the
// newest of them, kept as a fallback against a corrupt newest snapshot
// (and as the world a binary that cannot read the newest format
// recovers). It returns the epoch the log must stay replayable from:
// the fallback's, epoch itself when there is none, or -1 (keep the
// whole log) when dir cannot be listed.
func pruneSnapshots(dir string, epoch int64) int64 {
	names, err := snapshotNames(dir)
	if err != nil {
		return -1
	}
	// names is ascending; the last pre-epoch one is the fallback.
	from := epoch
	older := names[:0]
	for _, n := range names {
		if e, _ := snapshotEpoch(n); e < epoch {
			older = append(older, n)
			from = e
		}
	}
	for i := 0; i+1 < len(older); i++ {
		os.Remove(filepath.Join(dir, older[i]))
	}
	return from
}

// syncDir fsyncs a directory so a rename in it is durable. Best-effort
// on platforms where directories cannot be opened for sync.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return nil
	}
	return nil
}
