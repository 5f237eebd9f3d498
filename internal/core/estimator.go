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

	"factordb/internal/ivm"
	"factordb/internal/ra"
	"factordb/internal/relstore"
)

// TupleProb is one query-answer tuple with its estimated probability of
// membership in the answer set.
type TupleProb struct {
	Tuple relstore.Tuple
	P     float64
}

// tally is the estimate itself, read the same way from an Estimator and
// a Snapshot: counts[slot] is how many of the z samples contained the
// dictionary's tuple in that slot. The dictionary may hold slots no
// sample counted (count 0, or past the end of counts); they are not part
// of the estimate.
type tally struct {
	dict   ivm.Dict
	counts []int64
	z      int64
}

// Estimator accumulates tuple presence counts across sampled worlds,
// implementing the finite-sample estimate of Equation 5: a tuple's
// marginal is the fraction of samples whose (multiset) answer contained
// it with positive count. Storage is dense, by slot of an append-only
// tuple dictionary, so Snapshot copies only the counts.
//
// The dictionary is the view's answer table when the estimator counts a
// materialized view (AddSample). The view's slots are then the
// estimator's slots, and a sample costs the tuples that entered or left
// the answer since the last one, not the answer: a present slot's count
// is kept lazily as the sample at which its presence began. An estimator
// fed by a stream (AddSampleStream) or by merging snapshots (Merge) keeps
// a dictionary of its own instead. One estimator uses one of the two.
type Estimator struct {
	view   *ivm.Answer // the view answer AddSample reads, once bound
	own    *ivm.Answer // the private dictionary of AddSampleStream and Merge
	counts []int64     // per slot, the samples counted outside a current presence run
	// since is AddSample's per-slot presence run: the sample index just
	// before the first sample that found the slot present, or -1 while it
	// is absent. A present slot's count is counts + z − since.
	since []int64
	mark  uint64 // the view answer's crossing-log cursor (ivm.Answer.Crossed)
	// seen is AddSampleStream's per-slot dedup stamp: the index of the last
	// sample that counted the slot, so a tuple a stream yields several
	// times is counted once.
	seen []int64
	z    int64
}

// NewEstimator returns an empty estimator.
func NewEstimator() *Estimator { return &Estimator{} }

// AddSample counts every tuple present (count > 0) in the sampled answer
// and returns the answer's cardinality (its number of present distinct
// tuples), saving callers that track answer sizes a second pass. The
// paper's multiset bookkeeping — "the condition is changed to
// count(mi) > 0" — is exactly the positive-count test here.
//
// The first call binds the estimator to the answer, whose slots become
// its dictionary; every later call must pass the same answer, which may
// have been folded any number of times in between. Only the slots whose
// count crossed zero since the last call are visited.
func (e *Estimator) AddSample(a *ivm.Answer) int64 {
	if e.view != a {
		if e.view != nil || e.own != nil {
			panic("core: AddSample on an estimator bound to another dictionary")
		}
		e.view = a
	}
	e.z++
	if k := a.Slots() - len(e.counts); k > 0 {
		e.counts = append(e.counts, make([]int64, k)...)
		for range k {
			e.since = append(e.since, -1)
		}
	}
	crossed, all := a.Crossed(&e.mark)
	if all {
		for s := range int32(a.Slots()) {
			e.note(a, s)
		}
	} else {
		for _, s := range crossed {
			e.note(a, s)
		}
	}
	return int64(a.Len())
}

// note brings slot s's presence run in line with the answer at sample z:
// a run starts when the slot is found present, and ends, adding its
// length to the count, when the slot is found absent.
func (e *Estimator) note(a *ivm.Answer, s int32) {
	in, since := a.Count(s) > 0, e.since[s]
	switch {
	case in && since < 0:
		e.since[s] = e.z - 1
	case !in && since >= 0:
		e.counts[s] += e.z - 1 - since
		e.since[s] = -1
	}
}

// intern returns t's slot in the estimator's own dictionary, growing the
// counts to cover it.
func (e *Estimator) intern(t relstore.Tuple) int32 {
	if e.view != nil {
		panic("core: an estimator bound to a view answer counts only through AddSample")
	}
	if e.own == nil {
		e.own = new(ivm.Answer)
	}
	s := e.own.Slot(t)
	if k := int(s) + 1 - len(e.counts); k > 0 {
		e.counts = append(e.counts, make([]int64, k)...)
	}
	return s
}

// AddSampleStream counts one sampled answer directly from a streaming
// iterator (package ra), with no materialized answer in between: the
// naive evaluator's per-sample path. A tuple emitted split across several
// yields is counted once, via the per-sample seen stamp. A tuple is
// copied into the dictionary the first time it enters the estimator, so
// the stream's tuples may be scratch. Returns the answer's cardinality.
func (e *Estimator) AddSampleStream(it ra.Iterator) int64 {
	e.z++
	var card int64
	it(func(t relstore.Tuple, n int64) bool {
		if n <= 0 {
			return true
		}
		s := e.intern(t)
		if k := int(s) + 1 - len(e.seen); k > 0 {
			e.seen = append(e.seen, make([]int64, k)...)
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
// Section 5.4). Both must target the same query. The snapshot's counted
// tuples are copied into the estimator's own dictionary. Merging never
// resets dedup stamps: the normalizer only grows, so the next sample
// index exceeds every stale stamp.
func (e *Estimator) Merge(s *Snapshot) {
	e.z += s.z
	for i, c := range s.counts {
		if c > 0 {
			e.counts[e.intern(s.dict.Tuple(int32(i)))] += c
		}
	}
}

// dict returns the estimator's dictionary.
func (e *Estimator) dict() ivm.Dict {
	switch {
	case e.view != nil:
		return e.view.Dict()
	case e.own != nil:
		return e.own.Dict()
	}
	return ivm.Dict{}
}

// settled returns the counts with every open presence run added in. They
// are copied when clone is set or a run is open, else shared.
func (e *Estimator) settled(clone bool) []int64 {
	if !clone && !slices.ContainsFunc(e.since, func(since int64) bool { return since >= 0 }) {
		return e.counts
	}
	out := slices.Clone(e.counts)
	for s, since := range e.since {
		if since >= 0 {
			out[s] += e.z - since
		}
	}
	return out
}

// estimate returns the estimator's current state.
func (e *Estimator) estimate() tally {
	return tally{dict: e.dict(), counts: e.settled(false), z: e.z}
}

// Snapshot returns the estimator's current state as an immutable value:
// the dictionary prefix shared, the counts copied with every open
// presence run added in — two allocations whatever the answer size. The
// dictionary keeps growing past the snapshot's end, which no reader of
// the snapshot can see.
func (e *Estimator) Snapshot() *Snapshot {
	return &Snapshot{tally: tally{dict: e.dict(), counts: e.settled(true), z: e.z}}
}

// Snapshot is an estimator's state frozen at one moment: what a serving
// chain publishes, when a reader will read it, for readers to merge
// while its walk keeps accumulating. It has read accessors only. The
// zero value is the empty estimate.
type Snapshot struct {
	tally
}

// Samples returns the number of samples accumulated (the normalizer z).
func (e *Estimator) Samples() int64 { return e.z }

// Len returns the number of tuples counted in at least one sample.
func (e *Estimator) Len() int {
	n := 0
	for _, c := range e.settled(false) {
		if c > 0 {
			n++
		}
	}
	return n
}

// Marginals returns the estimated probability for every tuple seen,
// keyed by tuple key.
func (e *Estimator) Marginals() map[string]float64 { t := e.estimate(); return t.Marginals() }

// Results returns the answer tuples with probabilities, sorted by
// descending probability then tuple key for determinism.
func (e *Estimator) Results() []TupleProb { t := e.estimate(); return t.Results() }

// ResultsCI returns the answer tuples, in Results order, with Wilson
// score intervals at the given normal quantile z (see Snapshot.ResultsCI).
func (e *Estimator) ResultsCI(z float64) []TupleCI { t := e.estimate(); return t.ResultsCI(z) }

// Samples returns the number of samples accumulated (the normalizer z).
func (t *tally) Samples() int64 { return t.z }

// Marginals returns the estimated probability for every tuple seen,
// keyed by tuple key.
func (t *tally) Marginals() map[string]float64 {
	out := make(map[string]float64)
	for s, c := range t.counts {
		if c > 0 {
			out[t.dict.Tuple(int32(s)).Key()] = float64(c) / float64(t.z)
		}
	}
	return out
}

// counted is one counted tuple of an estimate.
type counted struct {
	tuple relstore.Tuple
	n     int64
}

// p is the tuple's estimated marginal out of z samples.
func (c counted) p(z int64) float64 { return float64(c.n) / float64(z) }

// ranked returns the counted tuples in answer order: descending count,
// then ascending tuple key.
func (t *tally) ranked() []counted {
	n := 0
	for _, c := range t.counts {
		if c > 0 {
			n++
		}
	}
	rows := make([]counted, 0, n)
	for s, c := range t.counts {
		if c > 0 {
			rows = append(rows, counted{t.dict.Tuple(int32(s)), c})
		}
	}
	slices.SortFunc(rows, func(a, b counted) int {
		if c := cmp.Compare(b.n, a.n); c != 0 {
			return c
		}
		return a.tuple.CompareKey(b.tuple)
	})
	return rows
}

// Results returns the answer tuples with probabilities, sorted by
// descending probability then tuple key for determinism.
func (t *tally) Results() []TupleProb {
	rows := t.ranked()
	out := make([]TupleProb, len(rows))
	for i, r := range rows {
		out[i] = TupleProb{Tuple: r.tuple, P: r.p(t.z)}
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
	rows := t.ranked()
	out := make([]TupleCI, len(rows))
	n := float64(t.z)
	for i, r := range rows {
		p := r.p(t.z)
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
		out[i] = TupleCI{Tuple: r.tuple, P: p, Lo: lo, Hi: hi}
	}
	return out
}
