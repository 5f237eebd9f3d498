package coref

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"factordb/internal/mcmc"
	"factordb/internal/relstore"
	"factordb/internal/world"
)

func TestSimilarity(t *testing.T) {
	if Similarity("John Smith", "John Smith") != 1 {
		t.Error("identical strings must have similarity 1")
	}
	if s := Similarity("John Smith", "J. Smith"); s < 0.9 {
		t.Errorf("initial expansion similarity = %v, want high", s)
	}
	if s := Similarity("John Smith", "Xqz Kvw"); s > 0.4 {
		t.Errorf("dissimilar similarity = %v, want low", s)
	}
	if s := Similarity("Smith", "Smyth"); s < 0.5 {
		t.Errorf("typo similarity = %v, want moderate", s)
	}
	if Similarity("", "") != 1 {
		t.Error("empty strings are identical")
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"abc", "abc", 0},
		{"abc", "abd", 1.0 / 3},
		{"", "abc", 1},
		{"kitten", "sitting", 3.0 / 7},
	}
	for _, c := range cases {
		if got := normalizedLevenshtein(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("lev(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestStateMoves(t *testing.T) {
	ms := []Mention{{ID: 0, Str: "a"}, {ID: 1, Str: "b"}, {ID: 2, Str: "c"}}
	s, _ := newState(t, ms)
	if s.NumClusters() != 3 {
		t.Fatalf("NumClusters = %d", s.NumClusters())
	}
	// Merge 1 into 0's cluster.
	dest := s.Move(1, s.Cluster(0))
	if s.Cluster(1) != dest || s.NumClusters() != 2 {
		t.Fatalf("after merge: cluster(1)=%d clusters=%d", s.Cluster(1), s.NumClusters())
	}
	if got := s.Members(dest); len(got) != 2 {
		t.Fatalf("members = %v", got)
	}
	// Split 1 back out to a fresh cluster.
	fresh := s.Move(1, s.nextID)
	if fresh == dest || !s.IsSingleton(1) || s.NumClusters() != 3 {
		t.Fatalf("after split: fresh=%d dest=%d clusters=%d", fresh, dest, s.NumClusters())
	}
	// No-op move.
	if s.Move(1, fresh) != fresh {
		t.Error("no-op move should return current cluster")
	}
}

func TestMoveDeltaMatchesFullScore(t *testing.T) {
	mentions, err := Generate(GenConfig{NumEntities: 4, MentionsPerEntity: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := newState(t, mentions)
	mo := DefaultModel()
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		m := rng.Intn(len(mentions))
		var target int
		if rng.Float64() < 0.3 || s.NumClusters() == 1 {
			target = s.nextID
		} else {
			ids := s.ClusterIDs()
			target = ids[rng.Intn(len(ids))]
			if target == s.Cluster(m) {
				target = s.nextID
			}
		}
		before := mo.Score(s)
		delta := mo.MoveDelta(s, m, target)
		s.Move(m, target)
		after := mo.Score(s)
		if math.Abs(delta-(after-before)) > 1e-9 {
			t.Fatalf("trial %d: delta=%v, rescore=%v", trial, delta, after-before)
		}
	}
}

func TestSamplingRecoversEntities(t *testing.T) {
	mentions, err := Generate(GenConfig{NumEntities: 5, MentionsPerEntity: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := newState(t, mentions)
	_, _, f1Before := s.PairwiseF1(mentions)
	p := NewMoveProposer(s, DefaultModel())
	sampler := mcmc.NewSampler(p, 13)
	sampler.Run(30000)
	_, _, f1After := s.PairwiseF1(mentions)
	if f1After <= f1Before {
		t.Errorf("F1 did not improve: before %v, after %v", f1Before, f1After)
	}
	if f1After < 0.5 {
		t.Errorf("F1 after sampling = %v, want >= 0.5", f1After)
	}
}

// PairwiseF1 scores the clustering against the gold entities of the
// mentions it was loaded from (mention i is row i; see LoadMentions) with
// pairwise precision/recall/F1: the evaluation the tests score walks by.
func (s *State) PairwiseF1(mentions []Mention) (precision, recall, f1 float64) {
	var tp, fp, fn float64
	n := len(mentions)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			same := s.Cluster(i) == s.Cluster(j)
			gold := mentions[i].Gold == mentions[j].Gold
			switch {
			case same && gold:
				tp++
			case same && !gold:
				fp++
			case !same && gold:
				fn++
			}
		}
	}
	if tp+fp > 0 {
		precision = tp / (tp + fp)
	}
	if tp+fn > 0 {
		recall = tp / (tp + fn)
	}
	if precision+recall > 0 {
		f1 = 2 * precision * recall / (precision + recall)
	}
	return precision, recall, f1
}

func TestPairwiseF1Extremes(t *testing.T) {
	mentions := []Mention{{Gold: 0}, {Gold: 0}, {Gold: 1}}
	s, _ := newState(t, mentions)
	// Singletons: no predicted pairs, recall 0.
	p, r, f1 := s.PairwiseF1(mentions)
	if p != 0 || r != 0 || f1 != 0 {
		t.Errorf("singleton F1 = %v/%v/%v", p, r, f1)
	}
	// Perfect clustering.
	s.Move(1, s.Cluster(0))
	p, r, f1 = s.PairwiseF1(mentions)
	if p != 1 || r != 1 || f1 != 1 {
		t.Errorf("perfect F1 = %v/%v/%v", p, r, f1)
	}
	// Everything merged: precision suffers.
	s.Move(2, s.Cluster(0))
	p, r, _ = s.PairwiseF1(mentions)
	if r != 1 || p >= 1 {
		t.Errorf("merged all: p=%v r=%v", p, r)
	}
}

func TestWriteThroughToDB(t *testing.T) {
	mentions, _ := Generate(GenConfig{NumEntities: 3, MentionsPerEntity: 3, Seed: 21})
	db := relstore.NewDB()
	if err := LoadMentions(db, mentions); err != nil {
		t.Fatal(err)
	}
	// The load declares the proposer's one column hidden, and no other.
	loaded, _ := db.Relation(MentionRelation)
	for i, col := range loaded.Schema().Cols {
		if loaded.Schema().Hidden(i) != (i == ClusterCol) {
			t.Errorf("MENTION.%s: hidden=%v, want %v", col.Name, loaded.Schema().Hidden(i), i == ClusterCol)
		}
	}
	s, err := NewState(world.NewChangeLog(db))
	if err != nil {
		t.Fatal(err)
	}
	p := NewMoveProposer(s, DefaultModel())
	sampler := mcmc.NewSampler(p, 23)
	sampler.Run(2000)
	// The CLUSTER column holds the state; mention i is row i.
	rel, _ := db.Relation(MentionRelation)
	for i := range mentions {
		tu, _ := rel.Get(relstore.RowID(i))
		if int(tu[ClusterCol].AsInt()) != s.Cluster(i) {
			t.Fatalf("mention %d: store cluster %d, memory %d", i, tu[ClusterCol].AsInt(), s.Cluster(i))
		}
	}
}

// TestNewStateValidation: NewState refuses a world without MENTION and
// binds the world LoadMentions filled, starting from its singletons.
func TestNewStateValidation(t *testing.T) {
	if _, err := NewState(world.NewChangeLog(relstore.NewDB())); err == nil {
		t.Error("a world without MENTION: want error")
	}
	mentions, _ := Generate(GenConfig{NumEntities: 2, MentionsPerEntity: 2, Seed: 1})
	s, _ := newState(t, mentions)
	if s.NumClusters() != len(mentions) {
		t.Errorf("LoadMentions's own world: %d clusters, want %d singletons", s.NumClusters(), len(mentions))
	}
}

// newState loads mentions into a fresh world, mention i as row i in
// cluster i, and binds a clustering to it through the returned log.
func newState(t testing.TB, mentions []Mention) (*State, *world.ChangeLog) {
	t.Helper()
	db := relstore.NewDB()
	if err := LoadMentions(db, mentions); err != nil {
		t.Fatal(err)
	}
	log := world.NewChangeLog(db)
	s, err := NewState(log)
	if err != nil {
		t.Fatal(err)
	}
	return s, log
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(GenConfig{}); err == nil {
		t.Error("zero config: want error")
	}
	ms, err := Generate(GenConfig{NumEntities: 3, MentionsPerEntity: 5, Seed: 2})
	if err != nil || len(ms) != 15 {
		t.Fatalf("Generate: %v, %d mentions", err, len(ms))
	}
	// Gold ids must partition the mentions into 3 entities.
	golds := map[int]int{}
	for _, m := range ms {
		golds[m.Gold]++
	}
	if len(golds) != 3 {
		t.Errorf("gold entities = %d", len(golds))
	}
}

// TestGenerateRefusesShortSurnamePool: each entity draws a surname no
// other entity holds, so a pool with fewer distinct surnames than entities
// is refused at once instead of drawing forever. Configs the pool can
// serve still generate.
func TestGenerateRefusesShortSurnamePool(t *testing.T) {
	for _, tc := range []struct {
		cfg GenConfig
		ok  bool
	}{
		{GenConfig{NumEntities: 72, MentionsPerEntity: 4, Seed: 1}, false},
		{GenConfig{NumEntities: 73, MentionsPerEntity: 4, Seed: 0}, false},
		{GenConfig{NumEntities: 72, MentionsPerEntity: 4, Seed: 0}, true},
		{GenConfig{NumEntities: 70, MentionsPerEntity: 4, Seed: 1}, true},
	} {
		done := make(chan error, 1)
		go func() {
			_, err := Generate(tc.cfg)
			done <- err
		}()
		select {
		case err := <-done:
			if (err == nil) != tc.ok {
				t.Errorf("Generate(%+v) = %v, want ok=%v", tc.cfg, err, tc.ok)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("Generate(%+v) still running after 5 s", tc.cfg)
		}
	}
}

func TestSingleMentionProposalIsNoOp(t *testing.T) {
	s, _ := newState(t, []Mention{{ID: 0, Str: "solo"}})
	p := NewMoveProposer(s, DefaultModel())
	sampler := mcmc.NewSampler(p, 3)
	sampler.Run(100)
	if s.NumClusters() != 1 {
		t.Error("single mention world must stay a single cluster")
	}
}

// TestMoveProposerStationaryDistribution checks the Hastings correction:
// with three mentions and a flat model (W=0), every one of the 5
// partitions of a 3-set must be visited with equal probability.
func TestMoveProposerStationaryDistribution(t *testing.T) {
	mentions := []Mention{{ID: 0, Str: "a"}, {ID: 1, Str: "b"}, {ID: 2, Str: "c"}}
	s, _ := newState(t, mentions)
	p := NewMoveProposer(s, &Model{W: 0, Threshold: 0.5})
	sampler := mcmc.NewSampler(p, 31)
	counts := map[string]int{}
	total := 200000
	for i := 0; i < total; i++ {
		sampler.Step()
		counts[canonicalPartition(s)]++
	}
	if len(counts) != 5 {
		t.Fatalf("visited %d partitions, want 5 (Bell number of 3)", len(counts))
	}
	for part, c := range counts {
		frac := float64(c) / float64(total)
		if math.Abs(frac-0.2) > 0.02 {
			t.Errorf("partition %s frequency = %.3f, want 0.2 (Hastings correction broken)", part, frac)
		}
	}
}

// canonicalPartition renders the clustering as a canonical string.
func canonicalPartition(s *State) string {
	firstSeen := map[int]byte{}
	next := byte('a')
	out := make([]byte, len(s.rows))
	for i, m := range s.rows {
		c := s.Cluster(m)
		b, ok := firstSeen[c]
		if !ok {
			b = next
			next++
			firstSeen[c] = b
		}
		out[i] = b
	}
	return string(out)
}
