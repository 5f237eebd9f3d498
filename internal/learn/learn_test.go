package learn

import (
	"math/rand"
	"testing"
)

func TestFeatureVector(t *testing.T) {
	f := FeatureVector{}
	f.Add(1, 2)
	f.Add(1, 3)
	if f[1] != 5 {
		t.Errorf("f[1] = %v", f[1])
	}
	f.Add(1, -5)
	if _, ok := f[1]; ok {
		t.Error("zeroed feature should be removed")
	}
	g := FeatureVector{2: 1, 3: -1}
	f.AddAll(g, 2)
	if f[2] != 2 || f[3] != -2 {
		t.Errorf("AddAll result = %v", f)
	}
}

func TestWeightsDotUpdate(t *testing.T) {
	w := NewWeights()
	w.Set(1, 2)
	w.Set(2, -1)
	f := FeatureVector{1: 3, 2: 1, 99: 10}
	if got := w.Dot(f); got != 5 {
		t.Errorf("Dot = %v, want 5", got)
	}
	w.Update(f, 0.5)
	if w.Get(1) != 3.5 || w.Get(99) != 5 {
		t.Errorf("Update result: w1=%v w99=%v", w.Get(1), w.Get(99))
	}
	c := w.Clone()
	c.Set(1, 0)
	if w.Get(1) != 3.5 {
		t.Error("Clone must be independent")
	}
}

// toyInstance is a two-token sequence-labeling problem: token 0 should be
// labeled 0 and token 1 should be labeled 1. Features are (token, label)
// indicators packed into uint64 keys.
type toyInstance struct {
	labels [2]int
	gold   [2]int

	tok, newLbl int // pending move
}

func key(tok, lbl int) uint64 { return uint64(tok)<<8 | uint64(lbl) }

func (ti *toyInstance) accuracy() float64 {
	n := 0.0
	for i := range ti.labels {
		if ti.labels[i] == ti.gold[i] {
			n++
		}
	}
	return n
}

func (ti *toyInstance) ProposeRank(rng *rand.Rand) Proposal {
	tok := rng.Intn(2)
	newLbl := rng.Intn(2)
	old := ti.labels[tok]
	fd := FeatureVector{}
	fd.Add(key(tok, newLbl), 1)
	fd.Add(key(tok, old), -1)
	objBefore := ti.accuracy()
	ti.labels[tok] = newLbl
	objAfter := ti.accuracy()
	ti.labels[tok] = old
	ti.tok, ti.newLbl = tok, newLbl
	return Proposal{FeatureDelta: fd, ObjectiveDelta: objAfter - objBefore}
}

func (ti *toyInstance) Accept() { ti.labels[ti.tok] = ti.newLbl }

func TestSampleRankLearnsToy(t *testing.T) {
	ti := &toyInstance{gold: [2]int{0, 1}}
	w := NewWeights()
	sr := NewSampleRank(w, ti, 1.0, 42)
	sr.Train(500)
	// The learned weights must prefer the gold label for each token.
	if w.Get(key(0, 0)) <= w.Get(key(0, 1)) {
		t.Errorf("token 0: w(gold)=%v w(other)=%v", w.Get(key(0, 0)), w.Get(key(0, 1)))
	}
	if w.Get(key(1, 1)) <= w.Get(key(1, 0)) {
		t.Errorf("token 1: w(gold)=%v w(other)=%v", w.Get(key(1, 1)), w.Get(key(1, 0)))
	}
	if sr.Updates() == 0 || sr.Steps() != 500 {
		t.Errorf("Updates=%d Steps=%d", sr.Updates(), sr.Steps())
	}
}

func TestSampleRankObjectiveWalk(t *testing.T) {
	ti := &toyInstance{gold: [2]int{0, 1}, labels: [2]int{1, 0}}
	w := NewWeights()
	sr := NewSampleRank(w, ti, 1.0, 7)
	sr.Walk = WalkByObjective
	sr.Train(300)
	// With a greedy objective walk the state itself must reach gold.
	if ti.labels != ti.gold {
		t.Errorf("labels = %v, want %v", ti.labels, ti.gold)
	}
}

func TestSampleRankNoUpdateWhenModelAgrees(t *testing.T) {
	// Pre-set perfect weights: model already ranks correctly, so no
	// updates should occur on decisive proposals.
	ti := &toyInstance{gold: [2]int{0, 1}}
	w := NewWeights()
	w.Set(key(0, 0), 10)
	w.Set(key(1, 1), 10)
	w.Set(key(0, 1), -10)
	w.Set(key(1, 0), -10)
	sr := NewSampleRank(w, ti, 1.0, 9)
	sr.Train(300)
	if sr.Updates() != 0 {
		t.Errorf("Updates = %d with perfect weights, want 0", sr.Updates())
	}
}
