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
// changed (tuple, signed count) pair to its parent's emit callback the
// moment it is produced, so a maintenance round allocates no intermediate
// bags between operators — the same item may even arrive split across
// several emissions and consumers fold signed counts. Mirroring the
// streaming evaluator (package ra), each operator declares via owned
// whether its emissions are stable or scratch; retaining consumers clone
// only unowned tuples, and only when first storing them.
package ivm

import (
	"fmt"

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
// round clones it (scanOp reports its emissions unowned).
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

// Empty reports whether the delta holds no rows.
func (d BaseDelta) Empty() bool {
	for _, rows := range d {
		if len(rows) > 0 {
			return false
		}
	}
	return true
}

// emitFn receives one streamed (tuple, signed count) pair. The same
// logical tuple may arrive split across several calls; receivers fold.
// Unless the producing operator reports owned()==true the tuple is only
// valid for the duration of the call.
type emitFn func(t relstore.Tuple, n int64)

// op is one stateful delta operator.
type op interface {
	// init fully evaluates the subtree, setting up internal state, and
	// streams the current output through emit.
	init(emit emitFn) error
	// apply pushes a base delta through the subtree, streaming the signed
	// output delta through emit.
	apply(d BaseDelta, emit emitFn)
	// owned reports whether emitted tuples are stable beyond the emit
	// call; operators that reuse an output buffer report false and
	// retaining consumers clone.
	owned() bool
}

// View is a materialized query answer kept consistent with the base
// relations under a stream of deltas.
type View struct {
	root   op
	result *ra.Bag
	kbuf   []byte
}

// NewView compiles a bound plan into a delta-operator tree and initializes
// it with one full evaluation (the only full query of the view's lifetime,
// matching Algorithm 1's initialization step).
func NewView(b *ra.Bound) (*View, error) {
	root, err := compile(b)
	if err != nil {
		return nil, err
	}
	return newViewFrom(root, b.Schema)
}

// newViewFrom materializes the initial answer from the operator tree's
// init stream.
func newViewFrom(root op, schema *ra.RowSchema) (*View, error) {
	v := &View{root: root, result: ra.NewBag(schema)}
	clone := !root.owned()
	err := root.init(func(t relstore.Tuple, n int64) {
		v.kbuf = t.AppendKey(v.kbuf[:0])
		v.result.AddKeyedBytes(v.kbuf, t, n, clone)
	})
	if err != nil {
		return nil, err
	}
	return v, nil
}

// Result returns the current materialized answer. The caller must treat it
// as read-only; it remains valid (and current) across Apply calls.
func (v *View) Result() *ra.Bag { return v.result }

// Apply folds a base delta into the view: the root's emissions stream
// straight into the maintained result, and no bag exists per operator or
// per call. Callers read the answer from Result.
func (v *View) Apply(d BaseDelta) {
	clone := !v.root.owned()
	v.root.apply(d, func(t relstore.Tuple, n int64) {
		v.kbuf = t.AppendKey(v.kbuf[:0])
		v.result.AddKeyedBytes(v.kbuf, t, n, clone)
	})
}

// childCompiler turns a bound subtree into its delta operator. Private
// views compile children with plain recursion; a Graph routes children
// through its fingerprint-keyed node table so equal subtrees share one
// stateful operator (see graph.go).
type childCompiler func(*ra.Bound) (op, error)

func compile(b *ra.Bound) (op, error) { return compileNode(b, compile) }

// compileNode builds the operator for one node, obtaining child operators
// through cc.
func compileNode(b *ra.Bound, cc childCompiler) (op, error) {
	switch b.Kind {
	case ra.KScan:
		return &scanOp{b: b}, nil
	case ra.KSelect:
		child, err := cc(b.Children[0])
		if err != nil {
			return nil, err
		}
		return &selectOp{b: b, child: child}, nil
	case ra.KProject:
		child, err := cc(b.Children[0])
		if err != nil {
			return nil, err
		}
		return &projectOp{b: b, child: child}, nil
	case ra.KJoin:
		left, err := cc(b.Children[0])
		if err != nil {
			return nil, err
		}
		right, err := cc(b.Children[1])
		if err != nil {
			return nil, err
		}
		return &joinOp{b: b, left: left, right: right}, nil
	case ra.KGroupAgg:
		child, err := cc(b.Children[0])
		if err != nil {
			return nil, err
		}
		return newGroupAggOp(b, child), nil
	case ra.KUnion, ra.KDiff:
		left, err := cc(b.Children[0])
		if err != nil {
			return nil, err
		}
		right, err := cc(b.Children[1])
		if err != nil {
			return nil, err
		}
		if b.Kind == ra.KUnion {
			return &unionOp{b: b, left: left, right: right}, nil
		}
		return &diffOp{b: b, left: left, right: right}, nil
	case ra.KDistinct:
		child, err := cc(b.Children[0])
		if err != nil {
			return nil, err
		}
		return &distinctOp{b: b, child: child}, nil
	case ra.KOrderLimit:
		child, err := cc(b.Children[0])
		if err != nil {
			return nil, err
		}
		return newOrderLimitOp(b, child), nil
	}
	return nil, fmt.Errorf("ivm: cannot compile bound kind %d", b.Kind)
}

// ---- scan ----

// scanOp forwards base deltas for its table. It keeps no state: consumers
// that need current contents (joins) maintain their own. Neither kind of
// row outlives its emit: the store scans through one scratch tuple, and
// a delta's tuples belong to the change log that drained it, until its
// next Drain. So scans do not own their emissions.
type scanOp struct {
	b *ra.Bound
}

func (o *scanOp) owned() bool { return false }

func (o *scanOp) init(emit emitFn) error {
	o.b.Rel.Scan(func(_ relstore.RowID, t relstore.Tuple) bool {
		emit(t, 1)
		return true
	})
	return nil
}

func (o *scanOp) apply(d BaseDelta, emit emitFn) {
	for _, r := range d[o.b.Table] {
		emit(r.Tuple, r.N)
	}
}

// ---- select ----

type selectOp struct {
	b     *ra.Bound
	child op
}

func (o *selectOp) owned() bool { return o.child.owned() }

func (o *selectOp) init(emit emitFn) error {
	return o.child.init(o.filter(emit))
}

func (o *selectOp) apply(d BaseDelta, emit emitFn) {
	o.child.apply(d, o.filter(emit))
}

func (o *selectOp) filter(emit emitFn) emitFn {
	return func(t relstore.Tuple, n int64) {
		if o.b.Pred.Eval(t).AsBool() {
			emit(t, n)
		}
	}
}

// ---- project ----

// projectOp rewrites rows through one reused scratch buffer, so its
// emissions are never owned.
type projectOp struct {
	b     *ra.Bound
	child op
	buf   relstore.Tuple
}

func (o *projectOp) owned() bool { return false }

func (o *projectOp) init(emit emitFn) error {
	return o.child.init(o.project(emit))
}

func (o *projectOp) apply(d BaseDelta, emit emitFn) {
	o.child.apply(d, o.project(emit))
}

func (o *projectOp) project(emit emitFn) emitFn {
	if o.buf == nil {
		o.buf = make(relstore.Tuple, len(o.b.ProjIdx))
	}
	return func(t relstore.Tuple, n int64) {
		for i, j := range o.b.ProjIdx {
			o.buf[i] = t[j]
		}
		emit(o.buf, n)
	}
}
