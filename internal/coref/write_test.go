package coref

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"factordb/internal/mcmc"
	"factordb/internal/ra"
	"factordb/internal/relstore"
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
	applyMutation(t, log, mut)
}

// applyMutation is applySQL for a mutation already compiled, as a
// prepared statement's is once its arguments are bound.
func applyMutation(t *testing.T, log *world.ChangeLog, mut ra.Mutation) {
	t.Helper()
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

// TestMoveIntoNegativeCluster: a cluster id below 0, which an INSERT may
// give a mention, is a cluster like any other, not a fresh one. With
// mentions 0 and 1 in cluster −1 and mentions 2 and 3 in cluster 5, a
// proposal for mention 2 or 3 draws cluster −1 and a fresh cluster at 1/2
// each, and an accepted move into −1 lands there.
func TestMoveIntoNegativeCluster(t *testing.T) {
	s, log := newState(t, nil)
	insert := &ra.Insert{TableName: MentionRelation, Columns: []string{"MENTION_ID", "STRING", "CLUSTER"}}
	for i, c := range []int64{-1, -1, 5, 5} {
		insert.Rows = append(insert.Rows, []relstore.Value{relstore.Int(int64(i)), relstore.String("m" + strconv.Itoa(i)), relstore.Int(c)})
	}
	applyMutation(t, log, insert)
	p := NewMoveProposer(s, DefaultModel())
	rng := rand.New(rand.NewSource(7))
	var drawn, intoNegative, intoFresh int
	for range 4000 {
		p.Propose(rng)
		if p.noop || p.m < 2 {
			continue
		}
		drawn++
		fresh := s.nextID
		p.Accept()
		switch c := s.Cluster(p.m); {
		case c == -1:
			intoNegative++
			if got := s.Members(-1); len(got) != 3 {
				t.Fatalf("mention %d moved into cluster -1, whose members are %v", p.m, got)
			}
		case c == fresh && s.IsSingleton(p.m):
			intoFresh++
		default:
			t.Fatalf("mention %d moved to cluster %d: neither -1 nor the fresh %d", p.m, c, fresh)
		}
		s.Move(p.m, 5) // back where it was
	}
	for _, got := range []int{intoNegative, intoFresh} {
		if math.Abs(float64(got)/float64(drawn)-0.5) > 0.05 {
			t.Fatalf("of %d proposals for mentions 2 and 3, %d went into cluster -1 and %d to a fresh cluster; want 1/2 each",
				drawn, intoNegative, intoFresh)
		}
	}
}
