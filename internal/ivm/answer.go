package ivm

import "factordb/internal/relstore"

// Answer is a view's maintained answer: a table of every distinct tuple
// the view's root has ever emitted, each in a slot it keeps for the life
// of the view, with its signed multiplicity. A tuple is present while its
// count is positive.
//
// The table is append-only. A new tuple is copied once into chunks that
// never move (the join sides' layout, join.go), and a slot is never
// freed, so a tuple that leaves the answer and comes back finds its old
// slot and allocates nothing. An open-addressing index hashes the key
// encoding and settles collisions with Identical, so no lookup builds a
// key string.
//
// Because slots are stable, an answer is also its readers' dictionary: a
// core.Estimator keeps its counts by slot, and the answer logs the slots
// whose count crossed zero so a reader folds only those (see Crossed).
type Answer struct {
	dict    Dict    // every slot handed out; the last chunk has room past dict.n
	counts  []int64 // signed multiplicity per slot
	byRow   index
	buf     []byte
	present int     // slots with a positive count
	crossed []int32 // slots whose count crossed zero since the log was last taken
	gen     uint64  // the log's generation, advanced at every take and overflow
}

// Dict is a read-only prefix of an answer's table: its slots [0, Slots())
// and their tuples. An answer only appends slots and never rewrites one,
// so a Dict taken on the goroutine that owns the answer stays valid, and
// may be read from any goroutine, while the answer grows. The zero value
// holds no slots.
type Dict struct {
	chunks [][]relstore.Value
	width  int
	n      int32
}

// Slots returns the number of slots in the prefix.
func (d Dict) Slots() int { return int(d.n) }

// Tuple returns slot s's tuple. The caller must not modify it.
func (d Dict) Tuple(s int32) relstore.Tuple {
	c, off := chunkOf(s)
	lo := off * d.width
	return d.chunks[c][lo : lo+d.width : lo+d.width]
}

// Len returns the number of present distinct tuples: the answer's
// cardinality, kept as a running count.
func (a *Answer) Len() int { return a.present }

// Slots returns the number of slots: every distinct tuple the answer has
// held, present or not.
func (a *Answer) Slots() int { return a.dict.Slots() }

// Tuple returns slot s's tuple. The caller must not modify it.
func (a *Answer) Tuple(s int32) relstore.Tuple { return a.dict.Tuple(s) }

// Count returns slot s's multiplicity.
func (a *Answer) Count(s int32) int64 { return a.counts[s] }

// Dict returns the table's current prefix.
func (a *Answer) Dict() Dict { return a.dict }

// Add folds n copies of t into the answer (n may be negative), logging the
// slot if its count crosses zero. A new tuple is copied, so t may be
// scratch.
func (a *Answer) Add(t relstore.Tuple, n int64) {
	if n == 0 {
		return
	}
	s := a.Slot(t)
	old := a.counts[s]
	a.counts[s] = old + n
	if (old > 0) == (old+n > 0) {
		return
	}
	if old > 0 {
		a.present--
	} else {
		a.present++
	}
	if len(a.crossed) >= int(a.dict.n) {
		// The log is as long as a scan of every slot: drop it, and make
		// every reader scan instead.
		a.crossed = a.crossed[:0]
		a.gen++
	}
	a.crossed = append(a.crossed, s)
}

// Slot returns t's slot, appending t with count zero if the answer has
// never held it. A new tuple is copied, so t may be scratch.
func (a *Answer) Slot(t relstore.Tuple) int32 {
	a.buf = t.AppendKey(a.buf[:0])
	h := hashKey(a.buf)
	if s := a.find(h, t); s >= 0 {
		return s
	}
	d := &a.dict
	s := d.n
	if s == 0 {
		d.width = len(t)
	}
	c, off := chunkOf(s)
	if c == len(d.chunks) {
		d.chunks = append(d.chunks, make([]relstore.Value, (chunkBase<<(c/chunkLevel))*d.width))
	}
	copy(d.chunks[c][off*d.width:], t)
	d.n++
	a.counts = append(a.counts, 0)
	a.byRow.insert(h, s)
	return s
}

// find returns the slot of the tuple identical to t, whose key encoding
// hashes to h, or -1.
func (a *Answer) find(h uint32, t relstore.Tuple) int32 {
	x := &a.byRow
	if x.n == 0 {
		return -1
	}
	for p := h & x.mask(); ; p = (p + 1) & x.mask() {
		c := x.cells[p]
		if c.ref == 0 {
			return -1
		}
		if c.hash == h && a.dict.Tuple(c.ref-1).Identical(t) {
			return c.ref - 1
		}
	}
}

// Crossed hands a reader the slots whose count crossed zero — became
// positive, or stopped being — since the reader last called Crossed, and
// starts a new log. mark is the reader's cursor, zero before its first
// call: a log nobody has taken holds every crossing since the answer
// was empty, so a first reader needs nothing else. When the log cannot
// answer for the reader (another reader took it since, or it outgrew the
// table), all is set and the reader must compare every slot instead. A
// slot may be listed more than once, or have crossed back. The slice is
// valid until the next Add.
func (a *Answer) Crossed(mark *uint64) (slots []int32, all bool) {
	slots, all = a.crossed, *mark != a.gen
	a.crossed = a.crossed[:0]
	a.gen++
	*mark = a.gen
	return slots, all
}
