package ivm

import (
	"factordb/internal/ra"
	"factordb/internal/relstore"
)

// aggState is the incrementally maintained state of one aggregate within
// one group. MIN/MAX keep a multiset of argument values so deletions can
// be unwound exactly.
type aggState struct {
	n    int64   // COUNT / COUNT_IF
	sumI int64   // SUM (int)
	sumF float64 // SUM (float) / AVG numerator
	cnt  int64   // AVG denominator and MIN/MAX population
	vals map[string]*valCount
}

type valCount struct {
	v relstore.Value
	n int64
}

// groupSlot is one group of a group-agg's slot table.
type groupSlot struct {
	total   int64  // net multiplicity of input rows in the group; 0 while free
	hash    uint32 // the group key's hash, under which the index files the slot
	next    int32  // the next free slot, while the slot is free
	row     bool   // the values past the key are the currently emitted row
	touched bool   // queued in groupAggOp.touched by the running apply
}

// groupAggOp maintains per-group aggregate state and emits −old/+new
// output rows for groups touched by a delta. It consumes its child's
// delta stream itself, queueing the groups each item touches; during
// init, which emits every group anyway, it consumes as groupAggFill,
// which only folds.
//
// The groups are a slot table in the join sides' layout (join.go): one
// slot per live group, in chunks that never move, found through an
// index that hashes the group key's encoding and settles collisions by
// comparing values, so no lookup builds a key string. A slot's values
// are the group's output row — the key, then one value per aggregate —
// and its aggregates' state sits in aggs at the same slot number. A
// group whose input nets to zero frees its slot for the next new group,
// so a group that empties and comes back allocates nothing.
//
// Rows are pushed straight from their slots — −old, then the slot is
// rewritten in place, then +new — so the output is scratch and the
// operator does not own it; retaining consumers copy.
type groupAggOp struct {
	b       *ra.Bound
	child   op
	global  bool
	width   int // values per slot: the key, then the aggregates
	chunks  chunks[groupSlot, relstore.Value]
	aggs    chunks[struct{}, aggState] // len(b.Aggs) per slot, at the slot's number
	used    int32                      // slots handed out: every slot below is live or free
	free    int32                      // first free slot, -1 if none
	index   index
	touched []int32 // slots the running apply changed; reused
	kbuf    []byte
}

type groupAggFill groupAggOp

func newGroupAggOp(b *ra.Bound, child op) *groupAggOp {
	return &groupAggOp{b: b, child: child, global: len(b.GroupIdx) == 0, width: len(b.GroupIdx) + len(b.Aggs)}
}

func (o *groupAggOp) owned() bool { return false }

// init builds the table afresh and emits every group in slot order, so a
// mount's output order depends on its input order alone.
func (o *groupAggOp) init(out consumer) error {
	o.chunks, o.aggs, o.used, o.free, o.index = nil, nil, 0, -1, index{}
	o.touched = o.touched[:0]
	if err := o.child.init((*groupAggFill)(o)); err != nil {
		return err
	}
	if o.global {
		o.group(nil) // ensure the global group exists even over empty input
	}
	// Every operator's init pushes only positive multiplicities, so each
	// group made here has input: apply's rule that a group netting to zero
	// has no row and no state releases nothing here.
	for i := int32(0); i < o.used; i++ {
		sl, row := o.slot(i)
		if sl.row = o.setRow(row, o.aggsOf(i)); sl.row {
			out.push(row, 1)
		}
	}
	return nil
}

func (f *groupAggFill) push(t relstore.Tuple, n int64) {
	o := (*groupAggOp)(f)
	i := o.group(t)
	sl, _ := o.slot(i)
	o.fold(sl, o.aggsOf(i), t, n)
}

func (o *groupAggOp) apply(d BaseDelta, out consumer) {
	o.child.apply(d, o)
	for _, i := range o.touched {
		sl, row := o.slot(i)
		sl.touched = false
		if sl.row {
			out.push(row, -1)
		}
		sl.row = (sl.total > 0 || o.global) && o.setRow(row, o.aggsOf(i))
		if sl.row {
			out.push(row, 1)
		}
		if sl.total == 0 && !o.global {
			o.release(i)
		}
	}
	o.touched = o.touched[:0]
}

func (o *groupAggOp) push(t relstore.Tuple, n int64) {
	i := o.group(t)
	sl, _ := o.slot(i)
	if !sl.touched {
		sl.touched = true
		o.touched = append(o.touched, i)
	}
	o.fold(sl, o.aggsOf(i), t, n)
}

// group returns the slot of input's group, creating the group on first
// sight; a nil input names the global group, which holds slot 0 for
// good once it exists. A new group's key is copied into its row.
func (o *groupAggOp) group(input relstore.Tuple) int32 {
	if o.global && o.used > 0 {
		return 0
	}
	o.kbuf = ra.AppendKeyOf(o.kbuf[:0], input, o.b.GroupIdx)
	h := hashKey(o.kbuf)
	if x := &o.index; x.n > 0 {
	probe:
		for p := h & x.mask(); ; p = (p + 1) & x.mask() {
			c := x.cells[p]
			if c.ref == 0 {
				break
			}
			if c.hash != h {
				continue
			}
			_, row := o.slot(c.ref - 1)
			for k, j := range o.b.GroupIdx {
				if !row[k : k+1].Identical(input[j : j+1]) {
					continue probe
				}
			}
			return c.ref - 1
		}
	}
	i := o.alloc()
	sl, row := o.slot(i)
	sl.hash = h
	for k, j := range o.b.GroupIdx {
		row[k] = input[j]
	}
	o.index.insert(h, i)
	return i
}

// alloc takes a free slot, or hands out a new one (and the chunk it
// starts).
func (o *groupAggOp) alloc() int32 {
	if i := o.free; i >= 0 {
		sl, _ := o.slot(i)
		o.free = sl.next
		return i
	}
	i := o.used
	o.used++
	o.chunks.grow(i, o.width)
	o.aggs.grow(i, len(o.b.Aggs))
	return i
}

// release returns slot i to the free list, dropping its row and resetting
// its aggregates (a MIN/MAX value set keeps its map for the next group).
func (o *groupAggOp) release(i int32) {
	sl, row := o.slot(i)
	o.index.removeSlot(sl.hash, i)
	clear(row)
	aggs := o.aggsOf(i)
	for k := range aggs {
		s := &aggs[k]
		clear(s.vals)
		*s = aggState{vals: s.vals}
	}
	*sl = groupSlot{next: o.free}
	o.free = i
}

// slot returns slot i and its row.
func (o *groupAggOp) slot(i int32) (*groupSlot, relstore.Tuple) { return o.chunks.at(i, o.width) }

// aggsOf returns slot i's aggregate states.
func (o *groupAggOp) aggsOf(i int32) []aggState {
	_, aggs := o.aggs.at(i, len(o.b.Aggs))
	return aggs
}

// fold merges n copies of input row t into a group's slot and aggregate
// states. Values are copied into the state (relstore.Value is a value
// type), so folding from an unowned stream is safe without cloning t.
func (o *groupAggOp) fold(sl *groupSlot, aggs []aggState, t relstore.Tuple, n int64) {
	sl.total += n
	for k := range o.b.Aggs {
		a := &o.b.Aggs[k]
		s := &aggs[k]
		switch a.Fn {
		case ra.FnCount:
			s.n += n
		case ra.FnCountIf:
			if a.Pred.Eval(t).AsBool() {
				s.n += n
			}
		case ra.FnSum:
			if a.Out == relstore.TInt {
				s.sumI += n * t[a.ArgIdx].AsInt()
			} else {
				s.sumF += float64(n) * t[a.ArgIdx].AsFloat()
			}
		case ra.FnAvg:
			s.sumF += float64(n) * t[a.ArgIdx].AsFloat()
			s.cnt += n
		case ra.FnMin, ra.FnMax:
			v := t[a.ArgIdx]
			s.cnt += n
			if s.vals == nil {
				s.vals = make(map[string]*valCount)
			}
			o.kbuf = v.AppendKey(o.kbuf[:0])
			if vc, ok := s.vals[string(o.kbuf)]; ok {
				vc.n += n
				if vc.n == 0 {
					delete(s.vals, string(o.kbuf))
				}
			} else {
				s.vals[string(o.kbuf)] = &valCount{v: v, n: n}
			}
		}
	}
}

// setRow writes the group's current aggregate values into its row after
// the key and reports whether the row is defined: it is not when any
// aggregate is (AVG/MIN/MAX over an empty population), matching the full
// evaluator's suppression rule.
func (o *groupAggOp) setRow(row relstore.Tuple, aggs []aggState) bool {
	vals := row[len(o.b.GroupIdx):]
	for k := range o.b.Aggs {
		a := &o.b.Aggs[k]
		s := &aggs[k]
		switch a.Fn {
		case ra.FnCount, ra.FnCountIf:
			vals[k] = relstore.Int(s.n)
		case ra.FnSum:
			if a.Out == relstore.TInt {
				vals[k] = relstore.Int(s.sumI)
			} else {
				vals[k] = relstore.Float(s.sumF)
			}
		case ra.FnAvg:
			if s.cnt == 0 {
				return false
			}
			vals[k] = relstore.Float(s.sumF / float64(s.cnt))
		case ra.FnMin, ra.FnMax:
			if len(s.vals) == 0 {
				return false
			}
			var best relstore.Value
			first := true
			for _, vc := range s.vals {
				if first {
					best = vc.v
					first = false
					continue
				}
				if a.Fn == ra.FnMin && vc.v.Less(best) {
					best = vc.v
				}
				if a.Fn == ra.FnMax && best.Less(vc.v) {
					best = vc.v
				}
			}
			vals[k] = best
		}
	}
	return true
}
