package coref

import (
	"fmt"
	"math/rand"
	"testing"

	"factordb/internal/mcmc"
)

// raceEnabled reports a race-detector build (see race_test.go), where
// allocation counts are not reproducible.
var raceEnabled bool

// TestProposeAllocatesNothing pins the clustering walk's hot path: a
// proposal scores the moved mention against its source and target
// clusters, and none of that — token scan, token matching, edit distance
// — touches the heap, whatever the mention count.
func TestProposeAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under -race")
	}
	for _, cfg := range []GenConfig{
		{NumEntities: 6, MentionsPerEntity: 4, Seed: 3},
		{NumEntities: 40, MentionsPerEntity: 5, Seed: 3},
	} {
		mentions, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("mentions=%d", len(mentions)), func(t *testing.T) {
			s, _ := newState(t, mentions)
			p := NewMoveProposer(s, DefaultModel())
			// Walk first, so proposals score against multi-mention clusters.
			mcmc.NewSampler(p, 7).Run(5000)
			rng := rand.New(rand.NewSource(11))
			if got := testing.AllocsPerRun(1000, func() { p.Propose(rng) }); got != 0 {
				t.Errorf("Propose allocates %v times per call, want 0", got)
			}
		})
	}
}
