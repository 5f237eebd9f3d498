package ivm

import (
	"factordb/internal/ra"
	"factordb/internal/relstore"
)

// unionOp is stateless: δ(L ∪ R) = δL + δR under bag-union semantics, so
// both input streams pass straight through.
type unionOp struct {
	b           *ra.Bound
	left, right op
}

func (o *unionOp) owned() bool { return o.left.owned() && o.right.owned() }

func (o *unionOp) init(out consumer) error {
	if err := o.left.init(out); err != nil {
		return err
	}
	return o.right.init(out)
}

func (o *unionOp) apply(d BaseDelta, out consumer) {
	o.left.apply(d, out)
	o.right.apply(d, out)
}

// diffOp maintains both input bags because monus (max(0, l−r)) is not
// linear: the output change at a key depends on the absolute input
// multiplicities, not just their deltas. Each streamed input item is
// applied to the maintained state immediately and the resulting output
// change emitted; summed per key the per-item emissions telescope to the
// exact batch difference, so no input buffering is needed even when one
// key's changes arrive split across many emissions. The inputs' consumers
// are the operator itself as diffLeft and diffRight.
type diffOp struct {
	b              *ra.Bound
	left, right    op
	ls, rs         *ra.Bag
	cloneL, cloneR bool
	out            consumer
	kbuf           []byte
}

type (
	diffLeft  diffOp
	diffRight diffOp
)

func (o *diffOp) owned() bool { return o.left.owned() && o.right.owned() }

func monus(l, r int64) int64 {
	if l > r {
		return l - r
	}
	return 0
}

// change folds one signed input item into the maintained side states and
// emits the induced output change.
func (o *diffOp) change(t relstore.Tuple, dl, dr int64) {
	o.kbuf = t.AppendKey(o.kbuf[:0])
	l, r := o.ls.CountBytes(o.kbuf), o.rs.CountBytes(o.kbuf)
	oldN := monus(l, r)
	newN := monus(l+dl, r+dr)
	if dl != 0 {
		o.ls.AddKeyedBytes(o.kbuf, t, dl, o.cloneL)
	}
	if dr != 0 {
		o.rs.AddKeyedBytes(o.kbuf, t, dr, o.cloneR)
	}
	if diff := newN - oldN; diff != 0 {
		o.out.push(t, diff)
	}
}

func (l *diffLeft) push(t relstore.Tuple, n int64)  { (*diffOp)(l).change(t, n, 0) }
func (r *diffRight) push(t relstore.Tuple, n int64) { (*diffOp)(r).change(t, 0, n) }

func (o *diffOp) init(out consumer) error {
	o.ls, o.rs = ra.NewBag(o.b.Schema), ra.NewBag(o.b.Schema)
	o.cloneL, o.cloneR = !o.left.owned(), !o.right.owned()
	o.out = out
	// Initialization is delta application against empty state: left items
	// raise the output, right items emit corrections where they overlap.
	if err := o.left.init((*diffLeft)(o)); err != nil {
		return err
	}
	return o.right.init((*diffRight)(o))
}

func (o *diffOp) apply(d BaseDelta, out consumer) {
	o.out = out
	o.left.apply(d, (*diffLeft)(o))
	o.right.apply(d, (*diffRight)(o))
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
