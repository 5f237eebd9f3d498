package ie

import (
	"testing"

	"factordb/internal/learn"
)

// raceEnabled reports a race-detector build (see race_test.go), where
// allocation counts are not reproducible.
var raceEnabled bool

// TestTrainStepAllocatesNothing pins SampleRank's hot path: a step draws a
// move, fills the trainer's one reused feature-delta buffer, and reads and
// updates θ in place, so once the buffer has grown nothing touches the
// heap.
func TestTrainStepAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under -race")
	}
	c, err := Generate(DefaultGenConfig(5000, 1))
	if err != nil {
		t.Fatal(err)
	}
	m := modelFor(c, true)
	sr := learn.NewSampleRank(m.W, newTagger(m, c), 1, 2)
	sr.Walk = learn.WalkByObjective
	sr.Train(20000) // warm-up: the buffer reaches its largest delta
	if n := testing.AllocsPerRun(5000, func() { sr.Step() }); n != 0 {
		t.Errorf("a SampleRank step allocates %v times, want 0", n)
	}
	if sr.Updates() == 0 {
		t.Fatal("no step updated θ; the check proves nothing")
	}
}
