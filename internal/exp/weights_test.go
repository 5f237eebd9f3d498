package exp

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"factordb/internal/ie"
)

// raceEnabled reports a race-detector build (see race_test.go), where the
// bench-scale training below is too slow to be worth its check.
var raceEnabled bool

// TestTrainedWeightsBenchScale pins θ as the benchmark trains it — 50 000
// tokens, one million SampleRank steps, then temperature scaling — against
// testdata/weights.txt: every slot the index's strings define, bit for
// bit.
func TestTrainedWeightsBenchScale(t *testing.T) {
	if raceEnabled {
		t.Skip("bench-scale training is too slow under -race")
	}
	sys, err := BuildNER(Config{NumTokens: 50000, Seed: 1, UseSkip: true})
	if err != nil {
		t.Fatal(err)
	}
	n := ie.EmissionKey(sys.Index.NumStrings(), 0)
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(sys.Model.W.Get(i)))
		h.Write(b[:])
	}
	got := fmt.Sprintf("ner-50k-seed1-skip %d %016x", n, h.Sum64())
	data, err := os.ReadFile("testdata/weights.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "ner-50k-seed1-skip ") {
			if line != got {
				t.Errorf("trained weights changed:\n got  %s\n want %s", got, line)
			}
			return
		}
	}
	t.Fatalf("no golden in testdata/weights.txt; recorded line would be %q", got)
}
