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
	rows, err := LoadMentions(db, mentions)
	if err != nil {
		t.Fatal(err)
	}
	state := NewSingletonState(mentions)
	p := NewMoveProposer(state, DefaultModel())
	if err := p.BindDB(world.NewChangeLog(db), rows); err != nil {
		t.Fatal(err)
	}
	s := mcmc.NewSampler(p, 103)
	s.Run(4000)
	rel, err := db.Relation(MentionRelation)
	if err != nil {
		t.Fatal(err)
	}
	h := mcmctest.NewHash()
	for m, rid := range rows {
		h.Int(state.Cluster(m))
		tu, ok := rel.Get(rid)
		if !ok {
			t.Fatalf("mention %d: row missing", m)
		}
		h.Int(int(tu[ClusterCol].AsInt()))
	}
	mcmctest.Check(t, "move", h, s.Steps(), s.Accepted())
}
