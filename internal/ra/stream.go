package ra

import (
	"fmt"

	"factordb/internal/relstore"
)

// Iterator streams the rows of a bag-valued (sub)query as (tuple,
// multiplicity) pairs — the lazy alternative to materializing a *Bag at
// every operator. Invoking the iterator runs the pipeline once against
// the current base relations; an Iterator compiled by Stream may be
// invoked any number of times (each invocation allocates its own
// transient state), which is how the naive evaluator re-runs one compiled
// pipeline per MCMC sample.
//
// Contract:
//
//   - yield is called once per output row occurrence; the same logical
//     tuple may arrive split across several calls (e.g. duplicate rows
//     surviving a filter), and consumers that need net multiplicities
//     must fold. Multiplicities on the evaluation path are positive.
//   - A yielded tuple is only valid until yield returns unless the
//     pipeline was compiled with owned=true: base scans (the store
//     materializes each row into one scratch tuple) and operators that
//     build rows (projections, join concatenation) reuse a buffer across
//     calls. Consumers that retain tuples past the call must Clone them
//     when owned is false.
//   - yield returning false stops the pipeline; the iterator returns
//     promptly and may be invoked again later (Close-once per run is
//     implicit — there is no separate Close).
type Iterator func(yield func(t relstore.Tuple, n int64) bool)

// Stream compiles a bound plan, the tree the ivm compiler mounts, into a
// single-pass streaming pipeline: a selection directly on a scan runs
// inside it, joins build one pre-sized hash table on the right input and
// probe with the left, and per-tuple key and row construction goes
// through reused scratch buffers. The returned owned flag reports whether
// yielded tuples are stable beyond the yield call (see Iterator).
//
// All errors are compile-time (unknown node kinds); running the iterator
// cannot fail. The input tree is not mutated.
func Stream(b *Bound) (it Iterator, owned bool, err error) {
	return compileStream(b)
}

// streamCompiler compiles one bound subtree into an iterator. The plain
// pipeline uses compileStream itself; AnalyzeStream supplies a wrapping
// compiler that interposes per-operator instrumentation at every
// parent/child edge. The indirection is compile-time only — it never
// appears on the per-row path — so the uninstrumented pipeline is
// unchanged.
type streamCompiler func(*Bound) (Iterator, bool, error)

func compileStream(b *Bound) (Iterator, bool, error) {
	return compileNode(b, compileStream)
}

// compileNode builds one operator, compiling its children through the
// supplied compiler.
func compileNode(b *Bound, compile streamCompiler) (Iterator, bool, error) {
	switch b.Kind {
	case KScan:
		if b.Rel == nil {
			return nil, false, ErrUnmounted
		}
		return streamScan(b.Rel, nil), false, nil
	case KSelect:
		if scan := fusedScan(b); scan != nil && scan.Rel != nil {
			return streamScan(scan.Rel, b.Pred), false, nil
		}
		return streamSelect(b, compile)
	case KProject:
		return streamProject(b, compile)
	case KJoin:
		return streamJoin(b, compile)
	case KGroupAgg:
		return streamGroupAgg(b, compile)
	case KUnion:
		return streamUnion(b, compile)
	case KDiff:
		return streamDiff(b, compile)
	case KDistinct:
		return streamDistinct(b, compile)
	case KOrderLimit:
		return streamOrderLimit(b, compile)
	}
	return nil, false, fmt.Errorf("ra: stream of unknown bound kind %d", b.Kind)
}

// fusedScan returns the scan a selection b sits directly on, which runs it.
func fusedScan(b *Bound) *Bound {
	if b.Kind == KSelect && b.Children[0].Kind == KScan {
		return b.Children[0]
	}
	return nil
}

// streamScan yields the relation's rows that pred (nil: every row)
// accepts: a `column = constant` conjunct is tested on the column
// vector, the rest on the materialized row. The store refills one
// scratch tuple per row, so scans are not owned.
func streamScan(rel *relstore.Relation, pred BExpr) Iterator {
	col, val, keep := ScanFilter(pred)
	return func(yield func(relstore.Tuple, int64) bool) {
		rel.ScanWhere(col, val, keep, func(_ relstore.RowID, t relstore.Tuple) bool {
			return yield(t, 1)
		})
	}
}

// streamSelect filters the child stream in place: rejected tuples are
// dropped without surfacing, accepted ones pass through untouched.
func streamSelect(b *Bound, compile streamCompiler) (Iterator, bool, error) {
	child, owned, err := compile(b.Children[0])
	if err != nil {
		return nil, false, err
	}
	pred := b.Pred
	it := func(yield func(relstore.Tuple, int64) bool) {
		child(func(t relstore.Tuple, n int64) bool {
			if !pred.Eval(t).AsBool() {
				return true
			}
			return yield(t, n)
		})
	}
	return it, owned, nil
}

// streamProject rewrites each row into one reused scratch buffer, so a
// projection allocates a single tuple per pipeline run instead of one per
// input row. Its output is therefore never owned.
func streamProject(b *Bound, compile streamCompiler) (Iterator, bool, error) {
	child, _, err := compile(b.Children[0])
	if err != nil {
		return nil, false, err
	}
	idx := b.ProjIdx
	it := func(yield func(relstore.Tuple, int64) bool) {
		buf := make(relstore.Tuple, len(idx))
		child(func(t relstore.Tuple, n int64) bool {
			for i, j := range idx {
				buf[i] = t[j]
			}
			return yield(buf, n)
		})
	}
	return it, false, nil
}

// streamJoin is a build-then-probe hash join: the right input is hashed
// once into a table pre-sized from the child's cardinality estimate, then
// the left input streams through, concatenating matches into one reused
// scratch row. With no key columns both sides share the single empty-key
// bucket, which degenerates to the Cartesian product.
func streamJoin(b *Bound, compile streamCompiler) (Iterator, bool, error) {
	left, _, err := compile(b.Children[0])
	if err != nil {
		return nil, false, err
	}
	right, rightOwned, err := compile(b.Children[1])
	if err != nil {
		return nil, false, err
	}
	lk, rk, filter := b.LeftKey, b.RightKey, b.Filter
	buildSize := estimateRows(b.Children[1])
	arity := b.Schema.Arity()
	it := func(yield func(relstore.Tuple, int64) bool) {
		table := make(map[string][]BagRow, buildSize)
		var kbuf []byte
		var arena tupleArena
		right(func(t relstore.Tuple, n int64) bool {
			kbuf = AppendKeyOf(kbuf[:0], t, rk)
			if !rightOwned {
				t = arena.clone(t)
			}
			table[string(kbuf)] = append(table[string(kbuf)], BagRow{Tuple: t, N: n})
			return true
		})
		if len(table) == 0 {
			return
		}
		scratch := make(relstore.Tuple, 0, arity)
		left(func(l relstore.Tuple, ln int64) bool {
			kbuf = AppendKeyOf(kbuf[:0], l, lk)
			for _, r := range table[string(kbuf)] {
				scratch = append(append(scratch[:0], l...), r.Tuple...)
				if filter != nil && !filter.Eval(scratch).AsBool() {
					continue
				}
				if !yield(scratch, ln*r.N) {
					return false
				}
			}
			return true
		})
	}
	return it, false, nil
}

// tupleArena copies unowned tuples a pipeline run must keep (a join's
// build side under a projection) into shared chunks, one allocation per
// chunk instead of one per row. Copies live as long as the run's state
// that references them.
type tupleArena struct{ free []relstore.Value }

func (a *tupleArena) clone(t relstore.Tuple) relstore.Tuple {
	if len(a.free) < len(t) {
		a.free = make([]relstore.Value, max(1024, len(t)))
	}
	c := a.free[:len(t):len(t)]
	a.free = a.free[len(t):]
	copy(c, t)
	return c
}

// streamGroupAgg is a pipeline breaker: it folds the child stream into
// per-group accumulator state (no input materialization) and then emits
// one freshly built row per group, reusing the full evaluator's
// accumulate/finishAgg semantics including the SQL global-group rule.
func streamGroupAgg(b *Bound, compile streamCompiler) (Iterator, bool, error) {
	child, _, err := compile(b.Children[0])
	if err != nil {
		return nil, false, err
	}
	groupIdx, aggs := b.GroupIdx, b.Aggs
	it := func(yield func(relstore.Tuple, int64) bool) {
		type group struct {
			key    relstore.Tuple
			accums []aggAccum
		}
		groups := make(map[string]*group)
		var kbuf []byte
		child(func(t relstore.Tuple, n int64) bool {
			kbuf = AppendKeyOf(kbuf[:0], t, groupIdx)
			g, ok := groups[string(kbuf)]
			if !ok {
				key := make(relstore.Tuple, len(groupIdx))
				for i, j := range groupIdx {
					key[i] = t[j]
				}
				g = &group{key: key, accums: make([]aggAccum, len(aggs))}
				groups[string(kbuf)] = g
			}
			for i := range aggs {
				accumulate(&g.accums[i], &aggs[i], t, n)
			}
			return true
		})
		// SQL semantics: an ungrouped aggregate always yields one row, with
		// counting aggregates reading 0 over empty input. Rows with
		// MIN/MAX/AVG are undefined over empty input and are suppressed (no
		// NULLs in this engine); counts-only global rows are emitted.
		if len(groupIdx) == 0 && len(groups) == 0 && countsOnly(aggs) {
			groups[""] = &group{key: relstore.Tuple{}, accums: make([]aggAccum, len(aggs))}
		}
		for _, g := range groups {
			row := make(relstore.Tuple, 0, len(g.key)+len(aggs))
			row = append(row, g.key...)
			ok := true
			for i := range aggs {
				v, valid := finishAgg(&g.accums[i], &aggs[i])
				if !valid {
					ok = false
					break
				}
				row = append(row, v)
			}
			if ok && !yield(row, 1) {
				return
			}
		}
	}
	return it, true, nil
}

func countsOnly(aggs []BoundAgg) bool {
	for _, a := range aggs {
		if a.Fn != FnCount && a.Fn != FnCountIf && a.Fn != FnSum {
			return false
		}
	}
	return true
}

// streamUnion concatenates the two input streams (bag union: counts add
// at the consumer).
func streamUnion(b *Bound, compile streamCompiler) (Iterator, bool, error) {
	left, lo, err := compile(b.Children[0])
	if err != nil {
		return nil, false, err
	}
	right, ro, err := compile(b.Children[1])
	if err != nil {
		return nil, false, err
	}
	it := func(yield func(relstore.Tuple, int64) bool) {
		stopped := false
		left(func(t relstore.Tuple, n int64) bool {
			if !yield(t, n) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return
		}
		right(yield)
	}
	return it, lo && ro, nil
}

// streamDiff materializes only the right side's multiplicity counts, then
// streams the left side through them: each left occurrence first pays
// down the remaining right count for its key and yields whatever
// survives. Summed per key this is exactly monus, max(0, left − right),
// even when a key's left occurrences arrive split across yields.
func streamDiff(b *Bound, compile streamCompiler) (Iterator, bool, error) {
	left, lo, err := compile(b.Children[0])
	if err != nil {
		return nil, false, err
	}
	right, _, err := compile(b.Children[1])
	if err != nil {
		return nil, false, err
	}
	rightSize := estimateRows(b.Children[1])
	it := func(yield func(relstore.Tuple, int64) bool) {
		rem := make(map[string]*int64, rightSize)
		var kbuf []byte
		right(func(t relstore.Tuple, n int64) bool {
			kbuf = t.AppendKey(kbuf[:0])
			if p := rem[string(kbuf)]; p != nil {
				*p += n
			} else {
				c := n
				rem[string(kbuf)] = &c
			}
			return true
		})
		left(func(t relstore.Tuple, n int64) bool {
			if len(rem) > 0 {
				kbuf = t.AppendKey(kbuf[:0])
				if p := rem[string(kbuf)]; p != nil && *p > 0 {
					use := *p
					if use > n {
						use = n
					}
					*p -= use
					n -= use
				}
			}
			if n == 0 {
				return true
			}
			return yield(t, n)
		})
	}
	return it, lo, nil
}

// streamDistinct yields each distinct tuple once with count 1, on first
// sight. Evaluation-path multiplicities are all positive, so first sight
// decides membership.
func streamDistinct(b *Bound, compile streamCompiler) (Iterator, bool, error) {
	child, owned, err := compile(b.Children[0])
	if err != nil {
		return nil, false, err
	}
	size := estimateRows(b.Children[0])
	it := func(yield func(relstore.Tuple, int64) bool) {
		seen := make(map[string]struct{}, size)
		var kbuf []byte
		child(func(t relstore.Tuple, n int64) bool {
			if n <= 0 {
				return true
			}
			kbuf = t.AppendKey(kbuf[:0])
			if _, dup := seen[string(kbuf)]; dup {
				return true
			}
			seen[string(kbuf)] = struct{}{}
			return yield(t, 1)
		})
	}
	return it, owned, nil
}

// olEntry is one distinct row held by the streaming top-k buffer.
type olEntry struct {
	key   string
	tuple relstore.Tuple
	n     int64
}

// streamOrderLimit is a pipeline breaker with O(limit) memory: it keeps a
// sorted buffer of candidate rows and evicts from the tail whenever the
// multiplicity accumulated before the last entry already covers the
// limit — counts only grow during a run, so an evicted row can never
// re-enter the output. Ties on the sort keys break by the injective
// tuple key, matching the ivm top-k operator exactly.
func streamOrderLimit(b *Bound, compile streamCompiler) (Iterator, bool, error) {
	child, owned, err := compile(b.Children[0])
	if err != nil {
		return nil, false, err
	}
	sortIdx, sortDesc, limit := b.SortIdx, b.SortDesc, b.Limit
	it := func(yield func(relstore.Tuple, int64) bool) {
		var entries []olEntry
		var total int64
		var kbuf []byte
		child(func(t relstore.Tuple, n int64) bool {
			kbuf = t.AppendKey(kbuf[:0])
			// Position of the incoming row in the strict total order.
			lo, hi := 0, len(entries)
			for lo < hi {
				mid := (lo + hi) / 2
				e := &entries[mid]
				c := CompareTuples(e.tuple, t, sortIdx, sortDesc)
				if c == 0 {
					c = compareStringBytes(e.key, kbuf)
				}
				if c < 0 {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo < len(entries) && entries[lo].key == string(kbuf) {
				entries[lo].n += n
				total += n
			} else {
				if owned {
					entries = append(entries, olEntry{})
					copy(entries[lo+1:], entries[lo:])
					entries[lo] = olEntry{key: string(kbuf), tuple: t, n: n}
				} else {
					entries = append(entries, olEntry{})
					copy(entries[lo+1:], entries[lo:])
					entries[lo] = olEntry{key: string(kbuf), tuple: t.Clone(), n: n}
				}
				total += n
			}
			// Evict rows that can no longer reach the output.
			for len(entries) > 1 && total-entries[len(entries)-1].n >= limit {
				total -= entries[len(entries)-1].n
				entries = entries[:len(entries)-1]
			}
			return true
		})
		remaining := limit
		for i := range entries {
			if remaining <= 0 {
				return
			}
			n := entries[i].n
			if n > remaining {
				n = remaining
			}
			if !yield(entries[i].tuple, n) {
				return
			}
			remaining -= n
		}
	}
	return it, true, nil
}

// compareStringBytes compares a string with a byte slice without
// converting either, for allocation-free tie-breaks.
func compareStringBytes(s string, b []byte) int {
	n := len(s)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if s[i] != b[i] {
			if s[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(s) < len(b):
		return -1
	case len(s) > len(b):
		return 1
	}
	return 0
}

// estimateRows guesses a node's output cardinality for pre-sizing hash
// tables, without evaluating anything. It only needs to be in the right
// ballpark: scans are exact, and everything else degrades toward its
// children's sizes.
func estimateRows(b *Bound) int {
	const defaultSize = 64
	switch b.Kind {
	case KScan:
		if b.Rel != nil { // unmounted, compiling it fails
			return b.Rel.Len()
		}
	case KSelect, KProject, KDistinct:
		return estimateRows(b.Children[0])
	case KOrderLimit:
		return int(b.Limit)
	case KUnion:
		return estimateRows(b.Children[0]) + estimateRows(b.Children[1])
	case KDiff:
		return estimateRows(b.Children[0])
	case KJoin:
		l, r := estimateRows(b.Children[0]), estimateRows(b.Children[1])
		if l > r {
			return l
		}
		return r
	case KGroupAgg:
		n := estimateRows(b.Children[0])
		if n > 1024 {
			return 1024
		}
		return n
	}
	return defaultSize
}
