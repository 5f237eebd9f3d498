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
// A base delta arrives as one record per changed row (Rows). A sampler
// writes one column, so its flip is a record of that column's old and new
// value. The leaf over the table reads the row from the store, as it was
// and as it is, only when the flip can change what the leaf pushes: a
// leaf whose steps never read the flipped column pushes nothing for it,
// nor does one whose `col = const` conjunct is false before and after
// the flip. A DML row arrives as whole signed tuples.
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

// BaseDelta maps base-relation names to the rows that changed, one
// record per row (Rows). Its signed rows are the paper's Δ⁻ (a tuple with
// count −n was removed n times) and Δ⁺ (+n: added); they use the base
// relation's column layout. The records are a plain list, not a set: the
// same tuple may appear more than once and with either sign, and every
// operator folds signed counts.
//
// A delta handed out by world.ChangeLog.Drain is valid until the next
// Drain on that log and no longer: its containers and records sit in
// buffers the log refills. A flip record's other columns are read from
// the store when it is gathered, so it is folded before anything but the
// walk of its own column writes the store. A tuple an operator gathers
// from a flip record is scratch for the push it is passed to, so an
// operator that keeps a delta row past the push clones it (a leaf stage
// reports its emissions unowned).
type BaseDelta map[string]Rows

// Rows is one relation's share of a BaseDelta, in the order the rows
// changed.
type Rows []Row

// Row is one record of a Rows. A tuple record (Tuple set) is N signed
// copies of Tuple: the DML rows a change log drains and the rows Add
// records. A flip record (Tuple nil) is what a sampler's write leaves:
// column Col of stored row ID went from Old to New, every other column
// unchanged. It stands for two signed rows, −1 of the row as it was and
// +1 as it is, which a reader gathers from the relation (Rows.Each) only
// when it needs them.
type Row struct {
	Tuple    relstore.Tuple
	N        int64
	ID       relstore.RowID
	Col      int
	Old, New relstore.Value
}

// Len returns the number of signed rows: one per tuple record, two per
// flip record.
func (r Rows) Len() int {
	n := 0
	for i := range r {
		if r[i].Tuple == nil {
			n++
		}
		n++
	}
	return n
}

// Each calls fn with every signed row of r in order: a tuple record's
// tuple and count, and for a flip record −1 with the row as it was, then
// +1 with it as it is, gathered from rel, the relation r was drained
// from. A gathered tuple is scratch for the call it is passed to: it
// lives in buf, which holds one row of rel (nil: Each makes one at the
// first flip record), and Each returns buf.
func (r Rows) Each(rel *relstore.Relation, buf relstore.Tuple, fn func(t relstore.Tuple, n int64)) relstore.Tuple {
	for i := range r {
		row := &r[i]
		if row.Tuple != nil {
			fn(row.Tuple, row.N)
			continue
		}
		if buf == nil {
			buf = make(relstore.Tuple, rel.Schema().Arity())
		}
		t := row.gather(rel, buf)
		fn(t, -1)
		t[row.Col] = row.New
		fn(t, 1)
	}
	return buf
}

// gather reads flip record r's row from rel into buf, one row long, with
// Col put back to Old: the row as it was. Storing New in Col then makes
// it the row as it is. Every other column is read from the store, which
// the lifetime of a drained delta keeps as it was drained.
func (r *Row) gather(rel *relstore.Relation, buf relstore.Tuple) relstore.Tuple {
	t, ok := rel.AppendRow(buf[:0], r.ID)
	if !ok {
		panic(fmt.Sprintf("ivm: flip record of row %d of %q read after the row went", r.ID, rel.Schema().Name))
	}
	t[r.Col] = r.Old
	return t
}

// NewBaseDelta returns an empty delta set.
func NewBaseDelta() BaseDelta { return make(BaseDelta) }

// Add records a signed change of n copies of row in the named relation.
// The tuple is not copied; callers must not mutate it while the delta is
// in use.
func (d BaseDelta) Add(rel string, row relstore.Tuple, n int64) {
	if n != 0 {
		d[rel] = append(d[rel], Row{Tuple: row, N: n})
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
//
// A leaf gathers a flip record's row into buf, one record at a time,
// and only when the flip can change what it pushes (sees): its steps
// read the flipped column, and the scan's `col = const` conjunct holds
// before or after the flip. A flip it skips would have pushed a row and
// its negation, or two rows the selection drops.
type stage struct {
	scan     *ra.Bound // a leaf's; nil over a child
	child    op
	steps    []step // bottom-up
	projects bool   // some step is a projection, so the output is scratch
	out      consumer

	// A leaf's: a bit per column of the table its steps read (every
	// column from the 64th on counts as read), the `col = const`
	// conjunct ra.ScanFilter splits off its scan selection at mount, the
	// one-row gather scratch (made at the first gather), and how many
	// flip records it has gathered.
	reads   uint64
	eqCol   int
	eqVal   relstore.Value
	buf     relstore.Tuple
	gathers int
}

// step is one node of a stage: a selection when pred is set, else a
// projection through idx into buf.
type step struct {
	pred ra.BExpr
	idx  []int
	buf  relstore.Tuple
}

func newStage(b *ra.Bound, cc childCompiler) (*stage, error) {
	n := 0
	for c := b; c.Kind == ra.KSelect || c.Kind == ra.KProject; c = c.Children[0] {
		n++
	}
	s := &stage{steps: make([]step, 0, n)}
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
		s.reads = readCols(s.steps, b.Rel.Schema().Arity())
		return s, nil
	}
	child, err := cc(b)
	if err != nil {
		return nil, err
	}
	s.child = child
	return s, nil
}

// readCols returns a bit per column of a table of the given arity, set
// for the columns steps read up to their first projection, which reads
// its own and hides the rest from every later step; every bit when no
// step projects, since the row itself is then the output.
func readCols(steps []step, arity int) uint64 {
	var small [64]bool
	reads := small[:]
	if arity > len(small) {
		reads = make([]bool, arity)
	}
	for _, st := range steps {
		if st.pred != nil {
			ra.MarkCols(st.pred, reads)
			continue
		}
		for _, c := range st.idx {
			reads[c] = true
		}
		var mask uint64
		for c := range min(arity, 64) {
			if reads[c] {
				mask |= 1 << c
			}
		}
		return mask
	}
	return ^uint64(0)
}

// owned: a leaf pushes the store's scratch tuple, a delta's tuple or a
// row gathered into its own scratch.
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
	s.eqCol, s.eqVal = col, val
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
	rows := d[s.scan.Table]
	for i := range rows {
		r := &rows[i]
		switch {
		case r.Tuple != nil:
			s.run(s.steps, r.Tuple, r.N)
		case s.sees(r):
			if s.buf == nil {
				s.buf = make(relstore.Tuple, s.scan.Rel.Schema().Arity())
			}
			s.gathers++
			t := r.gather(s.scan.Rel, s.buf)
			s.run(s.steps, t, -1)
			t[r.Col] = r.New
			s.run(s.steps, t, 1)
		}
	}
}

// sees reports whether flip record r can change what the leaf pushes. A
// conjunct on the flipped column is decided by r's two values; one on
// another column by a single read of the row, which the flip left as it
// was.
func (s *stage) sees(r *Row) bool {
	switch {
	case r.Col < 64 && s.reads&(1<<r.Col) == 0:
		return false
	case s.eqCol < 0:
		return true
	case s.eqCol == r.Col:
		return r.Old.Equal(s.eqVal) || r.New.Equal(s.eqVal)
	}
	v, _ := s.scan.Rel.GetCol(r.ID, s.eqCol)
	return v.Equal(s.eqVal)
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
