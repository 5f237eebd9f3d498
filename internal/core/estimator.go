// Package core is the probabilistic database engine: it ties the
// relational store (one possible world), an external factor-graph model
// expressed through an MCMC proposer, and relational query plans into the
// paper's query-evaluation problem — returning every tuple in a query
// answer together with its marginal probability Pr[t ∈ Q(W)]
// (Equations 4–5).
//
// Two evaluators are provided. The naive evaluator (Algorithm 3) re-runs
// the full query over the world after every k MCMC steps. The
// materialized evaluator (Algorithm 1) runs the full query once, then
// maintains the answer incrementally from the Δ⁻/Δ⁺ tuple deltas produced
// by the sampler — the paper's central efficiency result.
package core

import (
	"cmp"
	"math"
	"slices"
	"strings"

	"factordb/internal/ra"
	"factordb/internal/relstore"
)

// TupleProb is one query-answer tuple with its estimated probability of
// membership in the answer set.
type TupleProb struct {
	Tuple relstore.Tuple
	P     float64
}

// entry is one distinct answer tuple in an estimator's dictionary. Entries
// are only ever appended, never changed, so a snapshot can share any
// prefix of the dictionary while the estimator keeps growing it.
type entry struct {
	key   string
	tuple relstore.Tuple
}

// tally is the estimate itself, read the same way from an Estimator and
// a Snapshot: counts[slot] is how many of the z samples contained
// entries[slot].
type tally struct {
	entries []entry
	counts  []int64
	z       int64
}

// Estimator accumulates tuple presence counts across sampled worlds,
// implementing the finite-sample estimate of Equation 5: a tuple's
// marginal is the fraction of samples whose (multiset) answer contained
// it with positive count. Storage is dense — index maps a tuple key to
// its slot in the append-only dictionary — so Snapshot copies only the
// counts.
type Estimator struct {
	tally
	index map[string]int32
	// seen is AddSampleStream's per-slot dedup stamp: the index of the last
	// sample that counted the slot, so a tuple a stream yields several
	// times is counted once. A bag's keys are already distinct, so
	// AddSample neither needs nor grows it.
	seen []int64
	kbuf []byte
}

// NewEstimator returns an empty estimator.
func NewEstimator() *Estimator {
	return &Estimator{index: make(map[string]int32)}
}

// add appends a new dictionary entry with a zero count and returns its
// slot.
func (e *Estimator) add(key string, t relstore.Tuple) int32 {
	s := int32(len(e.entries))
	e.index[key] = s
	e.entries = append(e.entries, entry{key: key, tuple: t})
	e.counts = append(e.counts, 0)
	return s
}

// AddSample counts every tuple present (count > 0) in the sampled answer
// and returns the answer's cardinality (its number of present distinct
// tuples), saving callers that track answer sizes a second pass. The
// paper's multiset bookkeeping — "the condition is changed to
// count(mi) > 0" — is exactly the positive-count test here.
func (e *Estimator) AddSample(answer *ra.Bag) int64 {
	e.z++
	var card int64
	answer.Each(func(k string, r *ra.BagRow) bool {
		if r.N > 0 {
			s, ok := e.index[k]
			if !ok {
				s = e.add(k, r.Tuple)
			}
			e.counts[s]++
			card++
		}
		return true
	})
	return card
}

// AddSampleStream counts one sampled answer directly from a streaming
// iterator (package ra), with no materialized bag in between: the naive
// evaluator's per-sample path. A tuple emitted split across several yields
// is counted once, via the per-sample seen stamp. When the stream is
// unowned (tuples reused as scratch), the tuple is cloned the first time
// it enters the estimator. Returns the answer's cardinality.
func (e *Estimator) AddSampleStream(it ra.Iterator, owned bool) int64 {
	e.z++
	var card int64
	it(func(t relstore.Tuple, n int64) bool {
		if n <= 0 {
			return true
		}
		e.kbuf = t.AppendKey(e.kbuf[:0])
		s, ok := e.index[string(e.kbuf)]
		if !ok {
			if !owned {
				t = t.Clone()
			}
			s = e.add(string(e.kbuf), t)
		}
		for len(e.seen) <= int(s) {
			e.seen = append(e.seen, 0)
		}
		if e.seen[s] != e.z {
			e.seen[s] = e.z
			e.counts[s]++
			card++
		}
		return true
	})
	return card
}

// Merge adds the counts of a snapshot (used to average parallel chains,
// Section 5.4). Both must target the same query. Merging never resets
// dedup stamps: the normalizer only grows, so the next sample index
// exceeds every stale stamp.
func (e *Estimator) Merge(s *Snapshot) {
	e.z += s.z
	for i, en := range s.entries {
		slot, ok := e.index[en.key]
		if !ok {
			slot = e.add(en.key, en.tuple)
		}
		e.counts[slot] += s.counts[i]
	}
}

// Snapshot returns the estimator's current state as an immutable value:
// the dictionary prefix shared, the counts copied — two allocations
// whatever the answer size. The estimator keeps appending to the shared
// dictionary past the snapshot's end, which no reader of the snapshot
// can see.
func (e *Estimator) Snapshot() *Snapshot {
	n := len(e.entries)
	return &Snapshot{tally{entries: e.entries[:n:n], counts: slices.Clone(e.counts), z: e.z}}
}

// Snapshot is an estimator's state frozen at one moment: what a serving
// chain publishes once per epoch for readers to merge while its walk
// keeps accumulating. It has read accessors only. The zero value is the
// empty estimate.
type Snapshot struct{ tally }

// Samples returns the number of samples accumulated (the normalizer z).
func (t *tally) Samples() int64 { return t.z }

// p is slot's estimated marginal; a slot exists only once a sample
// counted it, so z > 0.
func (t *tally) p(slot int32) float64 { return float64(t.counts[slot]) / float64(t.z) }

// Marginals returns the estimated probability for every tuple seen,
// keyed by tuple key.
func (t *tally) Marginals() map[string]float64 {
	out := make(map[string]float64, len(t.entries))
	for i, en := range t.entries {
		out[en.key] = t.p(int32(i))
	}
	return out
}

// ranked returns the slots in answer order: descending count, then
// ascending tuple key.
func (t *tally) ranked() []int32 {
	order := make([]int32, len(t.entries))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(t.counts[b], t.counts[a]); c != 0 {
			return c
		}
		return strings.Compare(t.entries[a].key, t.entries[b].key)
	})
	return order
}

// Results returns the answer tuples with probabilities, sorted by
// descending probability then tuple key for determinism.
func (t *tally) Results() []TupleProb {
	order := t.ranked()
	out := make([]TupleProb, len(order))
	for i, slot := range order {
		out[i] = TupleProb{Tuple: t.entries[slot].tuple, P: t.p(slot)}
	}
	return out
}

// TupleCI is one answer tuple with its marginal estimate and a confidence
// interval for the true marginal.
type TupleCI struct {
	Tuple relstore.Tuple
	P     float64
	Lo    float64
	Hi    float64
}

// ResultsCI returns the answer tuples, in Results order, with Wilson score
// intervals at the given normal quantile z (1.96 for 95% confidence). The
// Wilson interval stays inside [0,1] and remains informative for
// marginals near 0 or 1 at the small sample counts typical of a
// bounded-latency query, where the Wald interval collapses to a point.
// Note the interval treats samples as independent; consecutive MCMC
// samples are positively correlated, so at small thinning intervals
// coverage is optimistic — parallel chains (whose samples are independent
// across chains) tighten this.
func (t *tally) ResultsCI(z float64) []TupleCI {
	order := t.ranked()
	out := make([]TupleCI, len(order))
	n := float64(t.z)
	for i, slot := range order {
		p := t.p(slot)
		lo, hi := p, p
		if n > 0 && z > 0 {
			z2 := z * z
			denom := 1 + z2/n
			center := (p + z2/(2*n)) / denom
			half := z / denom * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
			lo, hi = center-half, center+half
			if lo < 0 {
				lo = 0
			}
			if hi > 1 {
				hi = 1
			}
			// Guard against rounding at the extremes: the interval always
			// contains the point estimate (analytically true for Wilson).
			if lo > p {
				lo = p
			}
			if hi < p {
				hi = p
			}
		}
		out[i] = TupleCI{Tuple: t.entries[slot].tuple, P: p, Lo: lo, Hi: hi}
	}
	return out
}
