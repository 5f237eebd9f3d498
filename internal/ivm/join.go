package ivm

import (
	"hash/maphash"
	"math/bits"
	"slices"

	"factordb/internal/ra"
	"factordb/internal/relstore"
)

// sideState is the maintained contents of one join input: its distinct
// rows with their signed multiplicities, in a slot table indexed by join
// key so a delta probe walks exactly the matching rows.
//
// A slot holds one row's count and its links in the chain of rows that
// share its join key; the row's values are copied beside it. Slots live
// in chunks that never move, so a slot and its tuple are found in O(1)
// from the slot number and stay put, and storage is never re-copied as
// the side grows. A row whose count returns to zero frees its slot for
// the next new row, so a side never holds more slots than its peak
// number of live rows.
//
// Two indexes find rows without building a key string: byRow maps a
// whole row to its slot, byKey a join key to the head of its chain. Both
// hash the injective key encoding and settle hash collisions by comparing
// values. Neither allocates on insert — not even for a join key that
// leaves and comes back, as Query 3's −old/+new group rows do on every
// touched document — only when it doubles.
type sideState struct {
	keyIdx       []int
	arity        int
	chunks       chunks[slot, relstore.Value]
	used         int32 // slots handed out: every slot below is live or free
	free         int32 // first free slot, -1 if none; free slots chain through next
	live         int   // slots holding a row
	byRow, byKey index
	buf          []byte
}

// slot is one distinct row of a join side.
type slot struct {
	n          int64 // net multiplicity; 0 only while the slot is free
	prev, next int32 // neighbours in the join key's chain, -1 at either end
}

// chunk holds the slots of one contiguous slot range and their values,
// a fixed width per slot.
type chunk[S, V any] struct {
	slots []S
	vals  []V
}

// chunks is the storage of a slot table (a join side, a group-agg's
// groups): slot i is in chunk chunkOf(i), and neither a slot nor its
// values ever move.
type chunks[S, V any] []chunk[S, V]

// at returns slot i and its width values.
func (cs chunks[S, V]) at(i int32, width int) (*S, []V) {
	c, off := chunkOf(i)
	ch := &cs[c]
	lo := off * width
	return &ch.slots[off], ch.vals[lo : lo+width : lo+width]
}

// grow adds the chunk that slot i starts, if it starts one; slots are
// handed out in order, so every earlier slot's chunk exists. Zero-size
// slots cost no allocation.
func (cs *chunks[S, V]) grow(i int32, width int) {
	if c, _ := chunkOf(i); c == len(*cs) {
		size := chunkBase << (c / chunkLevel)
		*cs = append(*cs, chunk[S, V]{slots: make([]S, size), vals: make([]V, size*width)})
	}
}

// Chunk sizes grow geometrically, chunkLevel chunks to each doubling, so
// past its first chunk a side reserves at most a quarter more slots than
// it has handed out: a doubling chunk would reserve up to twice as many,
// and most join sides hold a few hundred rows of 40-byte values.
const (
	chunkBaseLog = 1 // log2 of the slots per chunk of the first level
	chunkBase    = 1 << chunkBaseLog
	chunkLevel   = 4 // chunks per level; a power of two
)

// chunkOf locates slot i: level k starts at slot
// chunkBase·chunkLevel·(2^k − 1) and holds chunks of chunkBase·2^k slots.
// Chunk sizes are powers of two, so it shifts and masks where a division
// by the size would cost more than the rest of a lookup.
func chunkOf(i int32) (c, off int) {
	k := bits.Len(uint(i)/(chunkBase*chunkLevel)+1) - 1
	r := int(i) - chunkBase*chunkLevel*(1<<k-1)
	shift := chunkBaseLog + k
	return chunkLevel*k + r>>shift, r & (1<<shift - 1)
}

func newSideState(keyIdx []int, arity int) sideState {
	return sideState{keyIdx: keyIdx, arity: arity, free: -1}
}

// hashSeed keys every join index of the process.
var hashSeed = maphash.MakeSeed()

func hashKey(b []byte) uint32 { return uint32(maphash.Bytes(hashSeed, b)) }

// at returns slot i and the row it holds.
func (s *sideState) at(i int32) (*slot, relstore.Tuple) { return s.chunks.at(i, s.arity) }

func (s *sideState) slot(i int32) *slot {
	sl, _ := s.at(i)
	return sl
}

func (s *sideState) tuple(i int32) relstore.Tuple {
	_, t := s.at(i)
	return t
}

// sameKey reports whether row's join key is identical to t's columns idx.
func (s *sideState) sameKey(row, t relstore.Tuple, idx []int) bool {
	for k, j := range s.keyIdx {
		if !row[j : j+1].Identical(t[idx[k] : idx[k]+1]) {
			return false
		}
	}
	return true
}

// findRow returns the byRow cell and slot of the row identical to t, whose
// key encoding hashes to h, or slot -1.
func (s *sideState) findRow(h uint32, t relstore.Tuple) (pos uint32, i int32) {
	x := &s.byRow
	if x.n == 0 {
		return 0, -1
	}
	for p := h & x.mask(); ; p = (p + 1) & x.mask() {
		c := x.cells[p]
		if c.ref == 0 {
			return p, -1
		}
		if c.hash == h && s.tuple(c.ref-1).Identical(t) {
			return p, c.ref - 1
		}
	}
}

// findKey returns the byKey cell and chain head of the join key held in
// t's columns idx, whose encoding hashes to h, or head -1.
func (s *sideState) findKey(h uint32, t relstore.Tuple, idx []int) (pos uint32, head int32) {
	x := &s.byKey
	if x.n == 0 {
		return 0, -1
	}
	for p := h & x.mask(); ; p = (p + 1) & x.mask() {
		c := x.cells[p]
		if c.ref == 0 {
			return p, -1
		}
		if c.hash == h && s.sameKey(s.tuple(c.ref-1), t, idx) {
			return p, c.ref - 1
		}
	}
}

// head returns the first slot of the chain of rows whose join key is
// identical to t's columns idx, or -1 if there is none.
func (s *sideState) head(t relstore.Tuple, idx []int) int32 {
	if s.live == 0 {
		return -1
	}
	s.buf = ra.AppendKeyOf(s.buf[:0], t, idx)
	_, i := s.findKey(hashKey(s.buf), t, idx)
	return i
}

// add folds a signed multiplicity change of t into the side. A new row is
// copied into the side's storage, so t may be scratch.
func (s *sideState) add(t relstore.Tuple, n int64) {
	if n == 0 {
		return
	}
	s.buf = t.AppendKey(s.buf[:0])
	h := hashKey(s.buf)
	if p, i := s.findRow(h, t); i >= 0 {
		if sl := s.slot(i); sl.n+n != 0 {
			sl.n += n
			return
		}
		s.byRow.remove(p)
		s.unlink(i, t)
		s.release(i)
		return
	}
	i := s.alloc()
	sl, row := s.at(i)
	copy(row, t)
	sl.n = n
	s.byRow.insert(h, i)
	s.link(i, t)
}

// alloc takes a free slot, or hands out a new one (and the chunk it
// starts).
func (s *sideState) alloc() int32 {
	s.live++
	if i := s.free; i >= 0 {
		s.free = s.slot(i).next
		return i
	}
	i := s.used
	s.used++
	s.chunks.grow(i, s.arity)
	return i
}

// release returns slot i to the free list, dropping its values.
func (s *sideState) release(i int32) {
	sl, row := s.at(i)
	clear(row)
	*sl = slot{next: s.free}
	s.free = i
	s.live--
}

// link puts slot i, holding t, at the head of its join key's chain.
func (s *sideState) link(i int32, t relstore.Tuple) {
	s.buf = ra.AppendKeyOf(s.buf[:0], t, s.keyIdx)
	h := hashKey(s.buf)
	p, head := s.findKey(h, t, s.keyIdx)
	sl := s.slot(i)
	sl.prev, sl.next = -1, head
	if head < 0 {
		s.byKey.insert(h, i)
		return
	}
	s.slot(head).prev = i
	s.byKey.cells[p].ref = i + 1
}

// unlink takes slot i, holding t, out of its join key's chain, dropping
// the key from byKey when the chain empties.
func (s *sideState) unlink(i int32, t relstore.Tuple) {
	sl := *s.slot(i)
	if sl.next >= 0 {
		s.slot(sl.next).prev = sl.prev
	}
	if sl.prev >= 0 {
		s.slot(sl.prev).next = sl.next
		return
	}
	s.buf = ra.AppendKeyOf(s.buf[:0], t, s.keyIdx)
	p, _ := s.findKey(hashKey(s.buf), t, s.keyIdx)
	if sl.next >= 0 {
		s.byKey.cells[p].ref = sl.next + 1
	} else {
		s.byKey.remove(p)
	}
}

// index is an open-addressing hash table from 32-bit key hashes to slots,
// probed linearly. Removing an entry shifts the rest of its probe run
// back instead of leaving a tombstone, so churn never fills the table:
// it grows only with the number of live entries.
type index struct {
	cells []cell // power-of-two length
	n     int
}

type cell struct {
	hash uint32
	ref  int32 // slot + 1; 0 marks an empty cell
}

func (x *index) mask() uint32 { return uint32(len(x.cells) - 1) }

// insert adds slot i under hash h; the caller knows its key is absent.
func (x *index) insert(h uint32, i int32) {
	if 4*(x.n+1) > 3*len(x.cells) {
		old := x.cells
		x.cells = make([]cell, max(8, 2*len(old)))
		for _, c := range old {
			if c.ref != 0 {
				x.place(c)
			}
		}
	}
	x.place(cell{hash: h, ref: i + 1})
	x.n++
}

func (x *index) place(c cell) {
	p := c.hash & x.mask()
	for x.cells[p].ref != 0 {
		p = (p + 1) & x.mask()
	}
	x.cells[p] = c
}

// removeSlot removes slot i, filed under hash h.
func (x *index) removeSlot(h uint32, i int32) {
	p := h & x.mask()
	for x.cells[p].ref != i+1 {
		p = (p + 1) & x.mask()
	}
	x.remove(p)
}

// remove empties cell p, moving back each later cell of the probe run
// whose home is not cyclically within (p, j].
func (x *index) remove(p uint32) {
	m := x.mask()
	for j := (p + 1) & m; x.cells[j].ref != 0; j = (j + 1) & m {
		if home := x.cells[j].hash & m; (j-home)&m >= (j-p)&m {
			x.cells[p] = x.cells[j]
			p = j
		}
	}
	x.cells[p] = cell{}
	x.n--
}

// joinOp maintains a slot table for each input and computes
// δ(L⋈R) = δL⋈R_old + L_old⋈δR + δL⋈δR, applying the residual filter and
// multiplying multiplicities. The delta identity is realized without
// buffering either input delta: the left phase probes the right state
// before folding each item into the left state (δL⋈R_old), then the right
// phase probes the already-updated left state (δR⋈L_new = L_old⋈δR +
// δL⋈δR). The phases are the join's two consumers, joinLeft and
// joinRight: the operator itself under two names, so handing either to a
// child allocates nothing.
//
// An input the plan gives a key filter (ra.KeyFilter) keeps only rows
// whose key is in the filter's set: a row outside it is neither probed
// nor folded into its side. The set is built at mount, from the store.
// It holds until a write brings a key into it: then the join remounts
// (see apply).
type joinOp struct {
	b           *ra.Bound
	left, right op
	ls, rs      sideState
	keys        [2]*keySet // keys[i] filters input i; nil: no filter
	remounts    int        // applies that remounted the join
	out         consumer
	scratch     relstore.Tuple
}

type (
	joinLeft  joinOp
	joinRight joinOp
)

func (o *joinOp) owned() bool { return false }

// emitJoined pushes the concatenation of t and every row of side whose
// join key equals t's columns probeIdx through the residual filter to
// out, using one reused output row.
func (o *joinOp) emitJoined(side *sideState, probeIdx []int, t relstore.Tuple, n int64, leftSide bool) {
	for i := side.head(t, probeIdx); i >= 0; {
		sl, m := side.at(i)
		i = sl.next
		if leftSide {
			o.scratch = append(append(o.scratch[:0], t...), m...)
		} else {
			o.scratch = append(append(o.scratch[:0], m...), t...)
		}
		if o.b.Filter != nil && !o.b.Filter.Eval(o.scratch).AsBool() {
			continue
		}
		o.out.push(o.scratch, n*sl.n)
	}
}

// init is delta application against empty sides: the left input fills
// its side (its probes of the empty right side find nothing), then the
// right input streams through it, emitting the initial join while
// filling its own.
func (o *joinOp) init(out consumer) error {
	o.ls = newSideState(o.b.LeftKey, o.b.Children[0].Schema.Arity())
	o.rs = newSideState(o.b.RightKey, o.b.Children[1].Schema.Arity())
	for i, f := range o.b.KeyFilters {
		if f != nil {
			o.keys[i] = newKeySet(f, leafRel(o.b.Children[1-i]))
		}
	}
	o.scratch = make(relstore.Tuple, 0, o.b.Schema.Arity())
	o.out = out
	if err := o.left.init((*joinLeft)(o)); err != nil {
		return err
	}
	return o.right.init((*joinRight)(o))
}

// apply folds d, unless d brings a key into a filter's set. A filter
// whose relation took no evidence write since its set was built costs
// one compare; one that did looks through the relation's delta rows.
func (o *joinOp) apply(d BaseDelta, out consumer) {
	for _, k := range o.keys {
		if k != nil && k.rel.EvidenceGen() != k.gen {
			if k.grows(d) {
				o.remount(out)
				return
			}
			k.gen = k.rel.EvidenceGen()
		}
	}
	o.out = out
	o.left.apply(d, (*joinLeft)(o))
	o.right.apply(d, (*joinRight)(o))
}

// remount rebuilds the join from the store, which already holds the
// delta: it retracts every row it has emitted, mounts again (its
// children and filter sets too) and emits the fresh join, so its
// consumer sees one signed delta, as from any other apply.
func (o *joinOp) remount(out consumer) {
	o.remounts++
	o.out = out
	for i := int32(0); i < o.ls.used; i++ {
		if sl, t := o.ls.at(i); sl.n != 0 {
			o.emitJoined(&o.rs, o.b.LeftKey, t, -sl.n, true)
		}
	}
	if err := o.init(out); err != nil {
		panic(err) // the tree mounted before, and a mount reads no catalog
	}
}

// push joins δL with R_old, then folds it into the left side.
func (l *joinLeft) push(t relstore.Tuple, n int64) {
	o := (*joinOp)(l)
	if !o.keys[0].admits(t, o.b.LeftKey) {
		return
	}
	o.emitJoined(&o.rs, o.b.LeftKey, t, n, true)
	o.ls.add(t, n)
}

// push joins δR with L_new, then folds it into the right side.
func (r *joinRight) push(t relstore.Tuple, n int64) {
	o := (*joinOp)(r)
	if !o.keys[1].admits(t, o.b.RightKey) {
		return
	}
	o.emitJoined(&o.ls, o.b.RightKey, t, n, false)
	o.rs.add(t, n)
}

// keySet is the set of keys a key filter's evidence reaches, built from
// one world's store. A key is held as a code: a lone INT key's value,
// any other key's 64-bit hash. Two keys that share a hash only keep a
// row that cannot join, never drop one that can, since the set is
// tested the same way when it is built, probed and grown.
type keySet struct {
	f     *ra.KeyFilter
	rel   *relstore.Relation
	gen   uint64   // rel.EvidenceGen() when the set was last checked
	codes []uint64 // sorted, distinct
	buf   []byte
	rows  relstore.Tuple // one row of rel, Each's gather scratch, made at its first flip
}

// newKeySet returns the set of the keys of rel's rows that pass f.Where.
func newKeySet(f *ra.KeyFilter, rel *relstore.Relation) *keySet {
	k := &keySet{f: f, rel: rel, gen: rel.EvidenceGen()}
	col, val, keep := ra.ScanFilter(f.Where)
	rel.ScanWhere(col, val, keep, func(_ relstore.RowID, t relstore.Tuple) bool {
		k.codes = append(k.codes, k.code(t, f.Key))
		return true
	})
	slices.Sort(k.codes)
	k.codes = slices.Compact(k.codes)
	return k
}

func (k *keySet) code(t relstore.Tuple, idx []int) uint64 {
	if len(idx) == 1 && t[idx[0]].Kind() == relstore.TInt {
		return uint64(t[idx[0]].AsInt())
	}
	k.buf = ra.AppendKeyOf(k.buf[:0], t, idx)
	return maphash.Bytes(hashSeed, k.buf)
}

// admits reports whether a row whose key is t's columns idx may enter
// the input k filters; every row may enter an input with no filter.
func (k *keySet) admits(t relstore.Tuple, idx []int) bool {
	if k == nil {
		return true
	}
	_, ok := slices.BinarySearch(k.codes, k.code(t, idx))
	return ok
}

// grows reports whether d adds a row of the filter's relation that
// passes its evidence conjuncts with a key outside the set.
func (k *keySet) grows(d BaseDelta) bool {
	grows := false
	k.rows = d[k.f.Table].Each(k.rel, k.rows, func(t relstore.Tuple, n int64) {
		grows = grows || n > 0 && k.f.Where.Eval(t).AsBool() && !k.admits(t, k.f.Key)
	})
	return grows
}

// leafRel returns the relation a leaf chain scans.
func leafRel(b *ra.Bound) *relstore.Relation {
	for b.Kind != ra.KScan {
		b = b.Children[0]
	}
	return b.Rel
}
