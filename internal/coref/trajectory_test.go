package coref

import (
	"testing"

	"factordb/internal/mcmc"
	"factordb/internal/mcmc/mcmctest"
	"factordb/internal/relstore"
	"factordb/internal/world"
)

// TestTrajectoryMoveProposer pins the clustering walk: cluster ids in
// memory, their write-through copies in MENTION.CLUSTER, and the
// sampler's counters after a fixed-seed run.
func TestTrajectoryMoveProposer(t *testing.T) {
	mentions, err := Generate(GenConfig{NumEntities: 8, MentionsPerEntity: 4, Seed: 101})
	if err != nil {
		t.Fatal(err)
	}
	db := relstore.NewDB()
	if err := LoadMentions(db, mentions); err != nil {
		t.Fatal(err)
	}
	state, err := NewState(world.NewChangeLog(db))
	if err != nil {
		t.Fatal(err)
	}
	p := NewMoveProposer(state, DefaultModel())
	s := mcmc.NewSampler(p, 103)
	s.Run(4000)
	rel, err := db.Relation(MentionRelation)
	if err != nil {
		t.Fatal(err)
	}
	h := mcmctest.NewHash()
	for m := range mentions {
		h.Int(state.Cluster(m))
		tu, ok := rel.Get(relstore.RowID(m))
		if !ok {
			t.Fatalf("mention %d: row missing", m)
		}
		h.Int(int(tu[ClusterCol].AsInt()))
	}
	mcmctest.Check(t, "move", h, s.Steps(), s.Accepted())
}
