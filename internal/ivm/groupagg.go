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

// groupState is the maintained state of one output group.
type groupState struct {
	mapKey  string // the group's key in groupAggOp.groups
	key     relstore.Tuple
	total   int64 // net multiplicity of input rows in the group
	aggs    []aggState
	lastRow relstore.Tuple // currently emitted output row, nil if none
	touched bool           // queued in groupAggOp.touched by the running apply
}

// groupAggOp maintains per-group aggregate state and emits −old/+new
// output rows for groups touched by a delta. Emitted rows are freshly
// built (or previously emitted) tuples, never scratch, so the operator
// owns its output.
type groupAggOp struct {
	b       *ra.Bound
	child   op
	groups  map[string]*groupState
	global  bool
	touched []*groupState // groups the running apply changed; reused
	kbuf    []byte
}

func newGroupAggOp(b *ra.Bound, child op) *groupAggOp {
	return &groupAggOp{b: b, child: child, global: len(b.GroupIdx) == 0}
}

func (o *groupAggOp) owned() bool { return true }

func (o *groupAggOp) init(emit emitFn) error {
	o.groups = make(map[string]*groupState)
	o.touched = o.touched[:0]
	err := o.child.init(func(t relstore.Tuple, n int64) {
		o.fold(o.group(t), t, n)
	})
	if err != nil {
		return err
	}
	if o.global {
		o.group(nil) // ensure the global group exists even over empty input
	}
	for _, g := range o.groups {
		if row := o.computeRow(g); row != nil {
			g.lastRow = row
			emit(row, 1)
		}
	}
	return nil
}

func (o *groupAggOp) apply(d BaseDelta, emit emitFn) {
	o.child.apply(d, func(t relstore.Tuple, n int64) {
		g := o.group(t)
		if !g.touched {
			g.touched = true
			o.touched = append(o.touched, g)
		}
		o.fold(g, t, n)
	})
	for i, g := range o.touched {
		o.touched[i] = nil // drain the reused queue as it is processed
		g.touched = false
		oldRow := g.lastRow
		var newRow relstore.Tuple
		if g.total > 0 || o.global {
			newRow = o.computeRow(g)
		}
		if oldRow != nil {
			emit(oldRow, -1)
		}
		if newRow != nil {
			emit(newRow, 1)
		}
		g.lastRow = newRow
		if g.total == 0 && !o.global {
			delete(o.groups, g.mapKey)
		}
	}
	o.touched = o.touched[:0]
}

// group returns the state of input's group, creating it on first sight;
// a nil input names the global group. The key is built in a reused
// buffer and becomes a string once per group, when the group is stored.
func (o *groupAggOp) group(input relstore.Tuple) *groupState {
	o.kbuf = o.kbuf[:0]
	if input != nil {
		o.kbuf = ra.AppendKeyOf(o.kbuf, input, o.b.GroupIdx)
	}
	g, ok := o.groups[string(o.kbuf)]
	if !ok {
		g = o.newGroup(input)
		g.mapKey = string(o.kbuf)
		o.groups[g.mapKey] = g
	}
	return g
}

func (o *groupAggOp) newGroup(input relstore.Tuple) *groupState {
	g := &groupState{aggs: make([]aggState, len(o.b.Aggs))}
	if input != nil {
		g.key = ra.ProjectTuple(input, o.b.GroupIdx)
	} else {
		g.key = relstore.Tuple{}
	}
	return g
}

// fold merges n copies of input row t into the group's aggregate states.
// Values are copied into the state (relstore.Value is a value type), so
// folding from an unowned stream is safe without cloning t.
func (o *groupAggOp) fold(g *groupState, t relstore.Tuple, n int64) {
	g.total += n
	for i := range o.b.Aggs {
		a := &o.b.Aggs[i]
		s := &g.aggs[i]
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

// computeRow materializes the group's current output row, or nil when any
// aggregate is undefined (AVG/MIN/MAX over an empty population), matching
// the full evaluator's suppression rule.
func (o *groupAggOp) computeRow(g *groupState) relstore.Tuple {
	row := make(relstore.Tuple, 0, len(g.key)+len(o.b.Aggs))
	row = append(row, g.key...)
	for i := range o.b.Aggs {
		a := &o.b.Aggs[i]
		s := &g.aggs[i]
		switch a.Fn {
		case ra.FnCount, ra.FnCountIf:
			row = append(row, relstore.Int(s.n))
		case ra.FnSum:
			if a.Out == relstore.TInt {
				row = append(row, relstore.Int(s.sumI))
			} else {
				row = append(row, relstore.Float(s.sumF))
			}
		case ra.FnAvg:
			if s.cnt == 0 {
				return nil
			}
			row = append(row, relstore.Float(s.sumF/float64(s.cnt)))
		case ra.FnMin, ra.FnMax:
			if len(s.vals) == 0 {
				return nil
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
			row = append(row, best)
		}
	}
	return row
}
