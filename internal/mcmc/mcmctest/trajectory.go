// Package mcmctest pins Metropolis-Hastings trajectories for the tests of
// every proposer package: a walk at a fixed seed must end in the same
// hidden state after the same number of acceptances, whatever is done to
// the cost of a step. The goldens were recorded on the closure-based
// proposal API (before PR 15) and must only ever be re-recorded by a
// change that means to alter the walk.
package mcmctest

import (
	"bufio"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"strings"
	"testing"
)

// goldenFile is read from the calling test's package directory.
const goldenFile = "testdata/trajectory.txt"

// Hash accumulates a hidden state into an FNV-1a fingerprint.
type Hash struct{ h hash.Hash64 }

// NewHash returns an empty fingerprint.
func NewHash() Hash { return Hash{fnv.New64a()} }

// Int folds one integer of the state into the fingerprint.
func (h Hash) Int(v int) {
	var b [8]byte
	for i := range b {
		b[i] = byte(uint64(v) >> (8 * i))
	}
	h.h.Write(b[:])
}

// String folds one length-delimited string of the state into the fingerprint.
func (h Hash) String(s string) {
	h.Int(len(s))
	h.h.Write([]byte(s))
}

// Check compares the walk named name — its final-state fingerprint and the
// sampler's step and acceptance counters — with its line in
// testdata/trajectory.txt ("name hash steps accepted").
func Check(t *testing.T, name string, state Hash, steps, accepted int64) {
	t.Helper()
	got := fmt.Sprintf("%s %016x %d %d", name, state.h.Sum64(), steps, accepted)
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("%v (recorded line would be %q)", err, got)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, name+" ") {
			if line != got {
				t.Errorf("walk changed:\n got  %s\n want %s", got, line)
			}
			return
		}
	}
	t.Fatalf("no golden for %q in %s; recorded line would be %q", name, goldenFile, got)
}
