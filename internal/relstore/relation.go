package relstore

import (
	"errors"
	"fmt"
	"sort"
)

// ErrNotFound marks operations addressing a RowID that is not (or no
// longer) present in the relation. Callers that hold long-lived row
// references across DML — the MCMC write-through path — match it with
// errors.Is to distinguish "row was deleted underneath me" from a
// programming error.
var ErrNotFound = errors.New("row not found")

// RowID identifies a row within a relation. IDs are stable for the life of
// the row and are never reused, so external components (such as the MCMC
// world bridge) can hold long-lived references to uncertain fields.
type RowID int64

// Relation is a bag of tuples conforming to a schema. Rows are addressed by
// stable RowIDs; secondary hash indexes may be declared on any column.
type Relation struct {
	schema  *Schema
	rows    map[RowID]Tuple
	nextID  RowID
	indexes map[int]*hashIndex // column position -> index
}

type hashIndex struct {
	col  int
	byID map[string]map[RowID]struct{}
}

func newHashIndex(col int) *hashIndex {
	return &hashIndex{col: col, byID: make(map[string]map[RowID]struct{})}
}

func (ix *hashIndex) add(id RowID, t Tuple) {
	k := t[ix.col].Key()
	set := ix.byID[k]
	if set == nil {
		set = make(map[RowID]struct{})
		ix.byID[k] = set
	}
	set[id] = struct{}{}
}

func (ix *hashIndex) remove(id RowID, t Tuple) {
	k := t[ix.col].Key()
	if set := ix.byID[k]; set != nil {
		delete(set, id)
		if len(set) == 0 {
			delete(ix.byID, k)
		}
	}
}

// NewRelation creates an empty relation with the given schema.
func NewRelation(schema *Schema) *Relation {
	return &Relation{
		schema:  schema,
		rows:    make(map[RowID]Tuple),
		indexes: make(map[int]*hashIndex),
	}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of rows.
func (r *Relation) Len() int { return len(r.rows) }

// Insert validates and stores a copy of t, returning its new RowID.
func (r *Relation) Insert(t Tuple) (RowID, error) {
	if err := r.schema.Validate(t); err != nil {
		return 0, err
	}
	id := r.nextID
	r.nextID++
	row := t.Clone()
	r.rows[id] = row
	for _, ix := range r.indexes {
		ix.add(id, row)
	}
	return id, nil
}

// Get returns the tuple stored under id. The returned tuple must not be
// mutated by the caller.
func (r *Relation) Get(id RowID) (Tuple, bool) {
	t, ok := r.rows[id]
	return t, ok
}

// Update replaces the tuple stored under id, returning the previous value.
func (r *Relation) Update(id RowID, t Tuple) (Tuple, error) {
	old, ok := r.rows[id]
	if !ok {
		return nil, fmt.Errorf("relstore: relation %q: update of row %d: %w", r.schema.Name, id, ErrNotFound)
	}
	if err := r.schema.Validate(t); err != nil {
		return nil, err
	}
	row := t.Clone()
	for _, ix := range r.indexes {
		ix.remove(id, old)
		ix.add(id, row)
	}
	r.rows[id] = row
	return old, nil
}

// UpdateCol replaces a single field of the row, returning the previous
// whole-row value. This is the hot path for MCMC label flips.
func (r *Relation) UpdateCol(id RowID, col int, v Value) (Tuple, error) {
	old, ok := r.rows[id]
	if !ok {
		return nil, fmt.Errorf("relstore: relation %q: update of row %d: %w", r.schema.Name, id, ErrNotFound)
	}
	if col < 0 || col >= len(old) {
		return nil, fmt.Errorf("relstore: relation %q: column %d out of range", r.schema.Name, col)
	}
	// The stored row already conforms; only the new field can break that.
	if err := r.schema.ValidateCol(col, v); err != nil {
		return nil, err
	}
	row := old.Clone()
	row[col] = v
	if ix, ok := r.indexes[col]; ok {
		ix.remove(id, old)
		ix.add(id, row)
	}
	r.rows[id] = row
	return old, nil
}

// Delete removes the row, returning its last value.
func (r *Relation) Delete(id RowID) (Tuple, error) {
	old, ok := r.rows[id]
	if !ok {
		return nil, fmt.Errorf("relstore: relation %q: delete of row %d: %w", r.schema.Name, id, ErrNotFound)
	}
	for _, ix := range r.indexes {
		ix.remove(id, old)
	}
	delete(r.rows, id)
	return old, nil
}

// Scan calls fn for every row until fn returns false. Iteration order is
// unspecified. The tuple passed to fn must not be mutated.
func (r *Relation) Scan(fn func(id RowID, t Tuple) bool) {
	for id, t := range r.rows {
		if !fn(id, t) {
			return
		}
	}
}

// ScanWhere is Scan with the predicate applied inside the storage layer:
// fn is called only for rows satisfying keep, so rejected tuples never
// surface to the caller. This is the sink for the streaming executor's
// pushed-down scan filters. Iteration order is unspecified; fn returning
// false stops the scan.
func (r *Relation) ScanWhere(keep func(t Tuple) bool, fn func(id RowID, t Tuple) bool) {
	for id, t := range r.rows {
		if keep(t) && !fn(id, t) {
			return
		}
	}
}

// ScanSorted is Scan in ascending RowID order, for deterministic output.
func (r *Relation) ScanSorted(fn func(id RowID, t Tuple) bool) {
	ids := make([]RowID, 0, len(r.rows))
	for id := range r.rows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if !fn(id, r.rows[id]) {
			return
		}
	}
}

// CreateIndex declares a hash index on the named column. Creating an index
// that already exists is a no-op.
func (r *Relation) CreateIndex(col string) error {
	ci := r.schema.ColIndex(col)
	if ci < 0 {
		return fmt.Errorf("relstore: relation %q: no column %q", r.schema.Name, col)
	}
	if _, ok := r.indexes[ci]; ok {
		return nil
	}
	ix := newHashIndex(ci)
	for id, t := range r.rows {
		ix.add(id, t)
	}
	r.indexes[ci] = ix
	return nil
}

// HasIndex reports whether the named column is indexed.
func (r *Relation) HasIndex(col string) bool {
	ci := r.schema.ColIndex(col)
	if ci < 0 {
		return false
	}
	_, ok := r.indexes[ci]
	return ok
}

// Lookup returns the RowIDs whose named column equals v, using the hash
// index when present and falling back to a full scan otherwise.
func (r *Relation) Lookup(col string, v Value) ([]RowID, error) {
	ci := r.schema.ColIndex(col)
	if ci < 0 {
		return nil, fmt.Errorf("relstore: relation %q: no column %q", r.schema.Name, col)
	}
	if ix, ok := r.indexes[ci]; ok {
		set := ix.byID[v.Key()]
		out := make([]RowID, 0, len(set))
		for id := range set {
			out = append(out, id)
		}
		return out, nil
	}
	var out []RowID
	for id, t := range r.rows {
		if t[ci].Equal(v) {
			out = append(out, id)
		}
	}
	return out, nil
}

// Clone returns a deep copy of the relation, including indexes. Used to
// produce identical initial worlds for parallel MCMC chains.
func (r *Relation) Clone() *Relation {
	c := NewRelation(r.schema)
	c.nextID = r.nextID
	for id, t := range r.rows {
		c.rows[id] = t.Clone()
	}
	for ci := range r.indexes {
		ix := newHashIndex(ci)
		for id, t := range c.rows {
			ix.add(id, t)
		}
		c.indexes[ci] = ix
	}
	return c
}
