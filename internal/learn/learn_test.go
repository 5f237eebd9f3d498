package learn

import (
	"math/rand"
	"slices"
	"testing"
)

func TestDeltaAdd(t *testing.T) {
	var d Delta
	d.Add(1, 2)
	d.Add(4, 0) // a zero value never enters
	d.Add(1, 3) // an index already present accumulates in place
	d.Add(2, -1)
	if want := (Delta{{1, 5}, {2, -1}}); !slices.Equal(d, want) {
		t.Errorf("d = %v, want %v", d, want)
	}
	d.Add(1, -5) // an entry whose value reaches zero is dropped
	if want := (Delta{{2, -1}}); !slices.Equal(d, want) {
		t.Errorf("after zeroing index 1: d = %v, want %v", d, want)
	}
	d.Reset()
	if len(d) != 0 {
		t.Errorf("Reset left %v", d)
	}
}

func TestWeightsDotUpdate(t *testing.T) {
	var w Weights
	w.Set(1, 2)
	w.Set(2, -1)
	d := Delta{{1, 3}, {2, 1}, {99, 10}} // index 99 is past the end: unset
	if got := w.Dot(d); got != 5 {
		t.Errorf("Dot = %v, want 5", got)
	}
	w.Update(d, 0.5)
	if w.Get(1) != 3.5 || w.Get(99) != 5 || len(w) != 100 {
		t.Errorf("Update result: w1=%v w99=%v len=%d", w.Get(1), w.Get(99), len(w))
	}
}

// toyInstance is a two-token sequence-labeling problem: token 0 should be
// labeled 0 and token 1 should be labeled 1. Features are (token, label)
// indicators at dense indexes.
type toyInstance struct {
	labels [2]int
	gold   [2]int

	tok, newLbl int // pending move
}

func key(tok, lbl int) int { return 2*tok + lbl }

func (ti *toyInstance) accuracy() float64 {
	n := 0.0
	for i := range ti.labels {
		if ti.labels[i] == ti.gold[i] {
			n++
		}
	}
	return n
}

func (ti *toyInstance) ProposeRank(rng *rand.Rand, d *Delta) float64 {
	tok := rng.Intn(2)
	newLbl := rng.Intn(2)
	old := ti.labels[tok]
	d.Add(key(tok, newLbl), 1)
	d.Add(key(tok, old), -1)
	objBefore := ti.accuracy()
	ti.labels[tok] = newLbl
	objAfter := ti.accuracy()
	ti.labels[tok] = old
	ti.tok, ti.newLbl = tok, newLbl
	return objAfter - objBefore
}

func (ti *toyInstance) Accept() { ti.labels[ti.tok] = ti.newLbl }

func TestSampleRankLearnsToy(t *testing.T) {
	ti := &toyInstance{gold: [2]int{0, 1}}
	var w Weights
	sr := NewSampleRank(&w, ti, 1.0, 42)
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
	var w Weights
	sr := NewSampleRank(&w, ti, 1.0, 7)
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
	var w Weights
	w.Set(key(0, 0), 10)
	w.Set(key(1, 1), 10)
	w.Set(key(0, 1), -10)
	w.Set(key(1, 0), -10)
	sr := NewSampleRank(&w, ti, 1.0, 9)
	sr.Train(300)
	if sr.Updates() != 0 {
		t.Errorf("Updates = %d with perfect weights, want 0", sr.Updates())
	}
}
