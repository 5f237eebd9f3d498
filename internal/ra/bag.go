package ra

import (
	"sort"

	"factordb/internal/relstore"
)

// BagRow is one distinct tuple of a bag together with its multiplicity.
// In a materialized result the count is positive; in a delta (package ivm)
// counts are signed.
type BagRow struct {
	Tuple relstore.Tuple
	N     int64
}

// Bag is a multiset of tuples keyed by their injective encoding. The zero
// count is never stored: adding a row whose count reaches zero removes it.
type Bag struct {
	Schema *RowSchema
	rows   map[string]*BagRow
}

// NewBag returns an empty bag with the given row schema.
func NewBag(schema *RowSchema) *Bag {
	return &Bag{Schema: schema, rows: make(map[string]*BagRow)}
}

// Add merges n copies of t into the bag (n may be negative for deltas).
// The tuple is not copied; callers must not mutate it afterwards.
func (b *Bag) Add(t relstore.Tuple, n int64) {
	if n == 0 {
		return
	}
	k := t.Key()
	b.addKeyed(k, t, n)
}

// AddKeyed is Add for callers that have already computed the tuple key.
func (b *Bag) AddKeyed(key string, t relstore.Tuple, n int64) {
	if n == 0 {
		return
	}
	b.addKeyed(key, t, n)
}

// AddKeyedBytes merges n copies of t under a key held in a reusable byte
// buffer. The key bytes are only converted to a string when the row is
// first inserted, so merging into an existing row is allocation-free —
// this is the streaming executor's materialization primitive. When clone
// is set the tuple is copied on first insert, for producers that reuse
// their output buffer (unowned streams).
func (b *Bag) AddKeyedBytes(key []byte, t relstore.Tuple, n int64, clone bool) {
	if n == 0 {
		return
	}
	if r, ok := b.rows[string(key)]; ok {
		r.N += n
		if r.N == 0 {
			delete(b.rows, string(key))
		}
		return
	}
	if clone {
		t = t.Clone()
	}
	b.rows[string(key)] = &BagRow{Tuple: t, N: n}
}

// CountBytes is Count for a key held in a byte buffer, without converting
// it to a string.
func (b *Bag) CountBytes(key []byte) int64 {
	if r, ok := b.rows[string(key)]; ok {
		return r.N
	}
	return 0
}

func (b *Bag) addKeyed(k string, t relstore.Tuple, n int64) {
	if r, ok := b.rows[k]; ok {
		r.N += n
		if r.N == 0 {
			delete(b.rows, k)
		}
		return
	}
	b.rows[k] = &BagRow{Tuple: t, N: n}
}

// Count returns the multiplicity of the tuple with the given key.
func (b *Bag) Count(key string) int64 {
	if r, ok := b.rows[key]; ok {
		return r.N
	}
	return 0
}

// Len returns the number of distinct tuples.
func (b *Bag) Len() int { return len(b.rows) }

// Size returns the total multiplicity (sum of positive and negative counts).
func (b *Bag) Size() int64 {
	var n int64
	for _, r := range b.rows {
		n += r.N
	}
	return n
}

// Each calls fn for every distinct tuple with its key and count, in
// unspecified order, until fn returns false.
func (b *Bag) Each(fn func(key string, row *BagRow) bool) {
	for k, r := range b.rows {
		if !fn(k, r) {
			return
		}
	}
}

// Rows returns the distinct rows sorted by tuple key, for deterministic
// output and comparisons in tests.
func (b *Bag) Rows() []*BagRow {
	keys := make([]string, 0, len(b.rows))
	for k := range b.rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*BagRow, len(keys))
	for i, k := range keys {
		out[i] = b.rows[k]
	}
	return out
}

// Clone returns an independent copy (tuples shared, counts copied).
func (b *Bag) Clone() *Bag {
	c := NewBag(b.Schema)
	for k, r := range b.rows {
		c.rows[k] = &BagRow{Tuple: r.Tuple, N: r.N}
	}
	return c
}

// Equal reports whether two bags contain the same tuples with identical
// counts.
func (b *Bag) Equal(o *Bag) bool {
	if len(b.rows) != len(o.rows) {
		return false
	}
	for k, r := range b.rows {
		or, ok := o.rows[k]
		if !ok || or.N != r.N {
			return false
		}
	}
	return true
}
