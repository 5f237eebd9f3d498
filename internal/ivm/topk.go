package ivm

import (
	"sort"

	"factordb/internal/ra"
	"factordb/internal/relstore"
)

// olEntry is one distinct child row tracked by the order/limit operator,
// with its net multiplicity.
type olEntry struct {
	key   string
	tuple relstore.Tuple
	n     int64
}

// orderLimitOp incrementally maintains the per-world top-k of its child:
// a bounded ordered output backed by the full multiset of child rows, so
// deletions during view maintenance are exact — when a row leaves the
// top k, its successor is already at hand instead of requiring a re-scan
// (the same keep-everything strategy the MIN/MAX aggregates use in
// groupagg.go, here kept sorted so reading the top k is a prefix walk).
//
// State is the entry multiset (map by tuple key) plus a sorted slice of
// the entries with positive count; the previously emitted top-k bag is
// retained so apply can emit the signed difference −old +new. Entry
// tuples are cloned from unowned child streams, so emissions (which
// reference entry or emitted-bag tuples) are always owned.
type orderLimitOp struct {
	b       *ra.Bound
	child   op
	entries map[string]*olEntry
	sorted  []*olEntry // entries with n > 0, ascending in sort order
	emitted *ra.Bag    // last emitted top-k output
	clone   bool       // the child's tuples are scratch
	kbuf    []byte
}

func newOrderLimitOp(b *ra.Bound, child op) *orderLimitOp {
	return &orderLimitOp{b: b, child: child}
}

func (o *orderLimitOp) owned() bool { return true }

// less orders entries by the sort keys with the injective tuple key as
// final tie-break, matching the streaming evaluator exactly.
func (o *orderLimitOp) less(a, b *olEntry) bool {
	if c := ra.CompareTuples(a.tuple, b.tuple, o.b.SortIdx, o.b.SortDesc); c != 0 {
		return c < 0
	}
	return a.key < b.key
}

func (o *orderLimitOp) init(out consumer) error {
	o.entries = make(map[string]*olEntry)
	o.sorted = o.sorted[:0]
	o.clone = !o.child.owned()
	if err := o.child.init(o); err != nil {
		return err
	}
	o.emitted = o.topK()
	o.emitted.Each(func(_ string, r *ra.BagRow) bool {
		out.push(r.Tuple, r.N)
		return true
	})
	return nil
}

func (o *orderLimitOp) apply(d BaseDelta, out consumer) {
	o.child.apply(d, o)
	newOut := o.topK()
	newOut.Each(func(k string, r *ra.BagRow) bool {
		if d := r.N - o.emitted.Count(k); d != 0 {
			out.push(r.Tuple, d)
		}
		return true
	})
	o.emitted.Each(func(k string, r *ra.BagRow) bool {
		if newOut.Count(k) == 0 {
			out.push(r.Tuple, -r.N)
		}
		return true
	})
	o.emitted = newOut
}

// push folds a signed multiplicity change for one distinct row into the
// multiset, keeping the ordered buffer in step. Entries whose net count
// drops to or below zero leave the buffer (a transiently negative count
// is retained in the map so a later matching insertion restores it).
func (o *orderLimitOp) push(t relstore.Tuple, dn int64) {
	if dn == 0 {
		return
	}
	o.kbuf = t.AppendKey(o.kbuf[:0])
	e, ok := o.entries[string(o.kbuf)]
	if !ok {
		if o.clone {
			t = t.Clone()
		}
		e = &olEntry{key: string(o.kbuf), tuple: t, n: dn}
		o.entries[e.key] = e
		if e.n > 0 {
			o.insert(e)
		}
		return
	}
	wasLive := e.n > 0
	e.n += dn
	switch {
	case e.n == 0:
		delete(o.entries, e.key)
		if wasLive {
			o.remove(e)
		}
	case wasLive && e.n < 0:
		o.remove(e)
	case !wasLive && e.n > 0:
		o.insert(e)
	}
}

// insert places e into the ordered buffer at its sort position.
func (o *orderLimitOp) insert(e *olEntry) {
	i := sort.Search(len(o.sorted), func(i int) bool { return !o.less(o.sorted[i], e) })
	o.sorted = append(o.sorted, nil)
	copy(o.sorted[i+1:], o.sorted[i:])
	o.sorted[i] = e
}

// remove deletes e from the ordered buffer. The comparator is a strict
// total order (tie-broken by the injective key), so the search lands on
// e's exact position.
func (o *orderLimitOp) remove(e *olEntry) {
	i := sort.Search(len(o.sorted), func(i int) bool { return !o.less(o.sorted[i], e) })
	for i < len(o.sorted) && o.sorted[i] != e {
		i++ // equal-comparing entries cannot exist, but stay safe
	}
	if i < len(o.sorted) {
		o.sorted = append(o.sorted[:i], o.sorted[i+1:]...)
	}
}

// topK materializes the current bounded output: a prefix walk of the
// ordered buffer accumulating multiplicities until the limit, with the
// boundary row clipped — identical to the full evaluator over the same
// input.
func (o *orderLimitOp) topK() *ra.Bag {
	out := ra.NewBag(o.b.Schema)
	remaining := o.b.Limit
	for _, e := range o.sorted {
		if remaining <= 0 {
			break
		}
		n := e.n
		if n > remaining {
			n = remaining
		}
		out.AddKeyed(e.key, e.tuple, n)
		remaining -= n
	}
	return out
}
