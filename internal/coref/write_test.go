package coref

import (
	"testing"

	"factordb/internal/mcmc"
	"factordb/internal/sqlparse"
	"factordb/internal/world"
)

// applySQL applies one DML statement to the world behind log, as a write
// reaches a chain's world.
func applySQL(t *testing.T, log *world.ChangeLog, sql string) {
	t.Helper()
	mut, err := sqlparse.CompileExec(sql)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := world.ResolveMutation(log.DB(), mut)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.ApplyOps(ops); err != nil {
		t.Fatal(err)
	}
}

// TestWalkFollowsEvidenceWrites: a clustering bound to a world that then
// takes a write walks step for step as one bound to a world loaded with
// the write already in it, on the same seed — the write is seen at the
// first proposal, and nothing about the world before it lingers. Every
// live mention's cluster is compared after every step.
func TestWalkFollowsEvidenceWrites(t *testing.T) {
	mentions, err := Generate(GenConfig{NumEntities: 8, MentionsPerEntity: 4, Seed: 101})
	if err != nil {
		t.Fatal(err)
	}
	last := len(mentions) - 1
	renamed := append([]Mention(nil), mentions...)
	for i := range renamed[:12] {
		renamed[i].Str = "Qqqqqq Zzzzzz"
	}
	for _, tc := range []struct {
		name       string
		load, want []Mention
		sql        string
	}{
		{"update", mentions, renamed, `UPDATE MENTION SET STRING = 'Qqqqqq Zzzzzz' WHERE MENTION_ID < 12`},
		{"delete last", mentions, mentions[:last], `DELETE FROM MENTION WHERE MENTION_ID = 31`},
		{"insert last", mentions[:last], mentions,
			`INSERT INTO MENTION (MENTION_ID, STRING, CLUSTER) VALUES (31, '` + mentions[last].Str + `', 31)`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			written, log := newState(t, tc.load)
			applySQL(t, log, tc.sql)
			want, _ := newState(t, tc.want)
			sw := mcmc.NewSampler(NewMoveProposer(written, DefaultModel()), 103)
			sr := mcmc.NewSampler(NewMoveProposer(want, DefaultModel()), 103)
			for step := 1; step <= 4000; step++ {
				sw.Step()
				sr.Step()
				for m := range tc.want {
					if w, r := written.Cluster(m), want.Cluster(m); w != r {
						t.Fatalf("step %d: mention %d in cluster %d, want %d", step, m, w, r)
					}
				}
			}
			if sw.Steps() != sr.Steps() || sw.Accepted() != sr.Accepted() {
				t.Fatalf("%d steps, %d accepted; want %d, %d", sw.Steps(), sw.Accepted(), sr.Steps(), sr.Accepted())
			}
			if sw.Accepted() == 0 {
				t.Fatal("the walk accepted no move")
			}
		})
	}
}

// TestWalkSurvivesDeletingEveryMention: a world whose mentions are all
// deleted leaves nothing to draw, and the walk goes on proposing no-ops.
func TestWalkSurvivesDeletingEveryMention(t *testing.T) {
	mentions, _ := Generate(GenConfig{NumEntities: 2, MentionsPerEntity: 2, Seed: 1})
	s, log := newState(t, mentions)
	sampler := mcmc.NewSampler(NewMoveProposer(s, DefaultModel()), 5)
	sampler.Run(100)
	applySQL(t, log, `DELETE FROM MENTION WHERE MENTION_ID >= 0`)
	sampler.Run(100)
	if s.NumClusters() != 0 {
		t.Errorf("%d clusters left over an empty relation", s.NumClusters())
	}
}
