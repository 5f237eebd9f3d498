// Package ivm implements incremental materialized-view maintenance over
// bound relational-algebra plans, the core systems contribution of the
// paper (Section 4.2): instead of re-running a query Q over every sampled
// world, the view is initialized once with a full evaluation and then
// updated from the small signed deltas Δ⁻/Δ⁺ produced by each batch of
// MCMC steps, following Blakeley et al.'s view-maintenance rewrites
//
//	Q(w') = Q(w) − Q'(w, Δ⁻) ∪ Q'(w, Δ⁺)
//
// generalized here to signed multiset (bag) deltas:
//
//	δ(σ_p R)      = σ_p(δR)
//	δ(π_A R)      = π_A(δR)              (signed counts add)
//	δ(R ⋈ S)      = δR⋈S + R⋈δS + δR⋈δS  (counts multiply)
//	δ(γ_{G,agg}R) = per-group state update, emitting −old +new rows
//
// All operators run in time proportional to the delta (plus index probes),
// never to the base relations.
//
// Deltas flow between operators as push streams: an operator hands each
// changed (tuple, signed count) pair to its parent's push method the
// moment it is produced, so a maintenance round allocates no intermediate
// bags between operators — the same item may even arrive split across
// several pushes and consumers fold signed counts. Every operator is its
// children's consumer through its own pointer, so wiring a stream builds
// no closure. An operator that consumes in two ways (a join's two
// inputs, a group-agg's init) does so through pointer conversions to one
// named type per way.
//
// Mirroring the streaming evaluator (package ra), each operator declares
// via owned whether its pushed tuples are stable or scratch. Unlike
// ra.Stream's, the group-agg here pushes scratch: its rows live in the
// slots of its group table, which it rewrites between a group's −old
// and +new push (groupagg.go). Retaining consumers never keep an
// unowned tuple: distinct state and the top-k buffer clone it on first
// insert, and a join side and the view's answer table copy every new row
// into chunks of their own (join.go, answer.go).
package ivm

import (
	"fmt"
	"slices"

	"factordb/internal/ra"
	"factordb/internal/relstore"
)

// BaseDelta maps base-relation names to the signed rows that changed: a
// tuple with count −n was removed n times (the paper's Δ⁻) and +n added
// (Δ⁺). The tuples use the base relation's column layout. Rows are a plain
// list, not a set: the same tuple may appear more than once and with
// either sign, and every operator folds signed counts.
//
// A delta handed out by world.ChangeLog.Drain is valid until the next
// Drain on that log and no longer: containers and tuples alike sit in
// buffers the log reuses. An operator that keeps a delta row past the
// round clones it (a leaf stage reports its emissions unowned).
type BaseDelta map[string]Rows

// Rows is one relation's share of a BaseDelta.
type Rows []ra.BagRow

// Len returns the number of signed rows.
func (r Rows) Len() int { return len(r) }

// NewBaseDelta returns an empty delta set.
func NewBaseDelta() BaseDelta { return make(BaseDelta) }

// Add records a signed change of n copies of row in the named relation.
// The tuple is not copied; callers must not mutate it while the delta is
// in use.
func (d BaseDelta) Add(rel string, row relstore.Tuple, n int64) {
	if n != 0 {
		d[rel] = append(d[rel], ra.BagRow{Tuple: row, N: n})
	}
}

// consumer receives one streamed (tuple, signed count) pair per push. The
// same logical tuple may arrive split across several pushes; consumers
// fold. Unless the producing operator reports owned()==true the tuple is
// only valid for the duration of the call.
type consumer interface {
	push(t relstore.Tuple, n int64)
}

// op is one stateful delta operator. An operator that forwards its
// children's pushes remembers out for the duration of the call; calls on
// one operator never nest.
type op interface {
	// init fully evaluates the subtree, setting up internal state, and
	// streams the current output to out.
	init(out consumer) error
	// apply pushes a base delta through the subtree, streaming the signed
	// output delta to out.
	apply(d BaseDelta, out consumer)
	// owned reports whether pushed tuples are stable beyond the push
	// call; operators that reuse an output buffer report false and
	// retaining consumers clone.
	owned() bool
}

// View is a materialized query answer kept consistent with the base
// relations under a stream of deltas. It is its root operator's consumer:
// the root's output folds straight into the answer table.
type View struct {
	root   op
	result Answer
}

// NewView compiles a bound plan into a delta-operator tree and initializes
// it with one full evaluation (the only full query of the view's lifetime,
// matching Algorithm 1's initialization step).
func NewView(b *ra.Bound) (*View, error) {
	root, err := compile(b)
	if err != nil {
		return nil, err
	}
	return newViewFrom(root)
}

// newViewFrom materializes the initial answer from the operator tree's
// init stream.
func newViewFrom(root op) (*View, error) {
	v := &View{root: root}
	if err := root.init(v); err != nil {
		return nil, err
	}
	return v, nil
}

func (v *View) push(t relstore.Tuple, n int64) { v.result.Add(t, n) }

// Result returns the current materialized answer. The caller must treat it
// as read-only, apart from taking its crossing log (Answer.Crossed); it
// remains valid (and current) across Apply calls.
func (v *View) Result() *Answer { return &v.result }

// Apply folds a base delta into the view: the root's output streams
// straight into the maintained answer, and no bag exists per operator or
// per call. Callers read the answer from Result.
func (v *View) Apply(d BaseDelta) { v.root.apply(d, v) }

// childCompiler turns a bound subtree into its delta operator. Views
// compile children with plain recursion (compile); the parameter is the
// seam through which the ownership tests wrap every operator of a tree
// in a canary (canaryCompile in ownership_test.go).
type childCompiler func(*ra.Bound) (op, error)

func compile(b *ra.Bound) (op, error) { return compileNode(b, compile) }

// compileNode builds the operator for one node, obtaining child operators
// through cc. A stage compiles the node below its chain itself; every
// other operator reads one or two children.
func compileNode(b *ra.Bound, cc childCompiler) (op, error) {
	switch b.Kind {
	case ra.KScan, ra.KSelect, ra.KProject:
		return newStage(b, cc)
	}
	var kids [2]op
	for i, c := range b.Children {
		k, err := cc(c)
		if err != nil {
			return nil, err
		}
		kids[i] = k
	}
	switch b.Kind {
	case ra.KJoin:
		return &joinOp{b: b, left: kids[0], right: kids[1]}, nil
	case ra.KGroupAgg:
		return newGroupAggOp(b, kids[0]), nil
	case ra.KDistinct:
		return &distinctOp{b: b, child: kids[0]}, nil
	case ra.KOrderLimit:
		return newOrderLimitOp(b, kids[0]), nil
	}
	return nil, fmt.Errorf("ivm: cannot compile bound kind %d", b.Kind)
}

// stage is a view's stateless bottom: a maximal chain of selections and
// projections over a base table (a leaf) or over the one stateful
// operator below it. A leaf's mount hands the selection directly above
// its scan to the store (ra.ScanFilter, relstore.ScanWhere), so it builds
// only the rows that selection keeps; apply runs every step over the
// table's delta rows or the child's pushes, so it sees a row the mount
// could not (a string no row held yet) when a delta brings it.
type stage struct {
	scan     *ra.Bound // a leaf's; nil over a child
	child    op
	steps    []step // bottom-up
	projects bool   // some step is a projection, so the output is scratch
	out      consumer
}

// step is one node of a stage: a selection when pred is set, else a
// projection through idx into buf.
type step struct {
	pred ra.BExpr
	idx  []int
	buf  relstore.Tuple
}

func newStage(b *ra.Bound, cc childCompiler) (*stage, error) {
	s := &stage{}
	for ; b.Kind == ra.KSelect || b.Kind == ra.KProject; b = b.Children[0] {
		if b.Kind == ra.KSelect {
			s.steps = append(s.steps, step{pred: b.Pred})
		} else {
			s.steps = append(s.steps, step{idx: b.ProjIdx, buf: make(relstore.Tuple, len(b.ProjIdx))})
			s.projects = true
		}
	}
	slices.Reverse(s.steps)
	if b.Kind == ra.KScan {
		if b.Rel == nil {
			return nil, ra.ErrUnmounted
		}
		s.scan = b
		return s, nil
	}
	child, err := cc(b)
	if err != nil {
		return nil, err
	}
	s.child = child
	return s, nil
}

// owned: a leaf pushes the store's scratch tuple or a delta's rows.
func (s *stage) owned() bool { return !s.projects && s.child != nil && s.child.owned() }

func (s *stage) init(out consumer) error {
	s.out = out
	if s.child != nil {
		return s.child.init(s)
	}
	steps, pred := s.steps, ra.BExpr(nil)
	if len(steps) > 0 && steps[0].pred != nil {
		pred, steps = steps[0].pred, steps[1:]
	}
	col, val, keep := ra.ScanFilter(pred)
	s.scan.Rel.ScanWhere(col, val, keep, func(_ relstore.RowID, t relstore.Tuple) bool {
		s.run(steps, t, 1)
		return true
	})
	return nil
}

func (s *stage) apply(d BaseDelta, out consumer) {
	s.out = out
	if s.child != nil {
		s.child.apply(d, s)
		return
	}
	for _, r := range d[s.scan.Table] {
		s.run(s.steps, r.Tuple, r.N)
	}
}

func (s *stage) push(t relstore.Tuple, n int64) { s.run(s.steps, t, n) }

// run passes one row through steps and pushes it on if it survives.
func (s *stage) run(steps []step, t relstore.Tuple, n int64) {
	for i := range steps {
		st := &steps[i]
		if st.pred != nil {
			if !st.pred.Eval(t).AsBool() {
				return
			}
			continue
		}
		for j, c := range st.idx {
			st.buf[j] = t[c]
		}
		t = st.buf
	}
	s.out.push(t, n)
}

// distinctOp maintains its input bag; the output toggles between 0 and 1
// as a key's input multiplicity crosses zero. Toggles are computed per
// streamed item, so opposite-signed split emissions cancel exactly.
type distinctOp struct {
	b     *ra.Bound
	child op
	state *ra.Bag
	clone bool
	out   consumer
	kbuf  []byte
}

func (o *distinctOp) owned() bool { return o.child.owned() }

func (o *distinctOp) push(t relstore.Tuple, n int64) {
	if n == 0 {
		return
	}
	o.kbuf = t.AppendKey(o.kbuf[:0])
	c := o.state.CountBytes(o.kbuf)
	before, after := c > 0, c+n > 0
	o.state.AddKeyedBytes(o.kbuf, t, n, o.clone)
	switch {
	case !before && after:
		o.out.push(t, 1)
	case before && !after:
		o.out.push(t, -1)
	}
}

func (o *distinctOp) init(out consumer) error {
	o.state = ra.NewBag(o.b.Schema)
	o.clone = !o.child.owned()
	o.out = out
	return o.child.init(o)
}

func (o *distinctOp) apply(d BaseDelta, out consumer) {
	o.out = out
	o.child.apply(d, o)
}
