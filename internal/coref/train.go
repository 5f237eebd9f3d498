package coref

import (
	"fmt"
	"math/rand"

	"factordb/internal/learn"
)

// TrainableModel learns the pairwise factor family with SampleRank
// instead of hand-set weights: the similarity range [0,1] is bucketed and
// each bucket carries a learned weight, so training discovers which
// similarity levels indicate coreference (the paper's "automatic learning
// over the database — avoiding the need to tune weights by hand",
// Section 3).
type TrainableModel struct {
	W       *learn.Weights
	Buckets int
}

const tplCorefBucket uint64 = 9

// NewTrainableModel creates an untrained model with the given similarity
// resolution.
func NewTrainableModel(buckets int) *TrainableModel {
	if buckets < 2 {
		buckets = 2
	}
	return &TrainableModel{W: learn.NewWeights(), Buckets: buckets}
}

// BucketKey is the feature key of one similarity bucket.
func (tm *TrainableModel) BucketKey(bucket int) uint64 {
	return tplCorefBucket<<56 | uint64(bucket)
}

func (tm *TrainableModel) bucketOf(a, b *Mention) int {
	sim := Similarity(a.Str, b.Str)
	bucket := int(sim * float64(tm.Buckets))
	if bucket >= tm.Buckets {
		bucket = tm.Buckets - 1
	}
	return bucket
}

// PairScore implements PairScorer with the learned bucket weights.
func (tm *TrainableModel) PairScore(a, b *Mention) float64 {
	return tm.W.Get(tm.BucketKey(tm.bucketOf(a, b)))
}

// featureDelta returns φ(w')−φ(w) for moving mention m to target: one
// bucket indicator per same-cluster pair gained or lost.
func (tm *TrainableModel) featureDelta(s *State, m, target int) learn.FeatureVector {
	fv := make(learn.FeatureVector)
	from := s.cluster[m]
	if target == from {
		return fv
	}
	if target >= 0 {
		for x := range s.members[target] {
			fv.Add(tm.BucketKey(tm.bucketOf(&s.Mentions[m], &s.Mentions[x])), 1)
		}
	}
	for x := range s.members[from] {
		if x != m {
			fv.Add(tm.BucketKey(tm.bucketOf(&s.Mentions[m], &s.Mentions[x])), -1)
		}
	}
	return fv
}

// objectiveDelta scores a move against gold entities: +1 for every
// gold-coreferent pair gained or gold-distinct pair dropped, −1 for the
// opposite — the pairwise-accuracy objective.
func objectiveDelta(s *State, m, target int) float64 {
	from := s.cluster[m]
	if target == from {
		return 0
	}
	gold := s.Mentions[m].Gold
	var obj float64
	pair := func(x int, sign float64) {
		if s.Mentions[x].Gold == gold {
			obj += sign
		} else {
			obj -= sign
		}
	}
	if target >= 0 {
		for x := range s.members[target] {
			pair(x, 1)
		}
	}
	for x := range s.members[from] {
		if x != m {
			pair(x, -1)
		}
	}
	return obj
}

// RankMoveProposer adapts the move proposal for SampleRank training.
type RankMoveProposer struct {
	State *State
	Model *TrainableModel

	// The pending move: mention m goes to cluster target; noop when there
	// is nowhere to move.
	m, target int
	noop      bool
}

// ProposeRank implements learn.Proposer.
func (p *RankMoveProposer) ProposeRank(rng *rand.Rand) learn.Proposal {
	s := p.State
	m := rng.Intn(len(s.Mentions))
	k := s.NumClusters()
	opts := k
	if s.IsSingleton(m) {
		opts = k - 1
	}
	p.noop = opts <= 0
	if p.noop {
		return learn.Proposal{FeatureDelta: learn.FeatureVector{}}
	}
	from := s.Cluster(m)
	others := make([]int, 0, k)
	for _, c := range s.ClusterIDs() {
		if c != from {
			others = append(others, c)
		}
	}
	target := -1
	if pick := rng.Intn(opts); pick < len(others) {
		target = others[pick]
	}
	p.m, p.target = m, target
	return learn.Proposal{
		FeatureDelta:   p.Model.featureDelta(s, m, target),
		ObjectiveDelta: objectiveDelta(s, m, target),
	}
}

// Accept implements learn.Proposer.
func (p *RankMoveProposer) Accept() {
	if !p.noop {
		p.State.Move(p.m, p.target)
	}
}

// Train runs SampleRank over mentions with gold entities, returning the
// trained model. The walk follows the evolving model, as in the paper's
// training setup.
func Train(mentions []Mention, buckets, steps int, rate float64, seed int64) (*TrainableModel, error) {
	if len(mentions) == 0 {
		return nil, fmt.Errorf("coref: Train requires mentions")
	}
	tm := NewTrainableModel(buckets)
	state := NewSingletonState(mentions)
	sr := learn.NewSampleRank(tm.W, &RankMoveProposer{State: state, Model: tm}, rate, seed)
	sr.Train(steps)
	return tm, nil
}
