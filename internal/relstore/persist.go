package relstore

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
)

// Snapshot persistence: a whole database (one possible world) can be
// written to and restored from a stream — the world encoding inside
// internal/store's checkpoint files.

// ErrBadSnapshot marks a snapshot that decodes as gob but does not
// describe a world: row ids out of order or beyond the id counter, rows
// that do not fit their schema, unknown column types, an id counter out
// of proportion to the rows (see checkDensity).
var ErrBadSnapshot = errors.New("malformed snapshot")

// A relation is dense by RowID, so one restored from a snapshot gets a
// slot for every id up to its counter, tombstones included. The counter is
// a header a corrupt or hostile stream can set to anything; a snapshot is
// therefore accepted only while the counter stays within snapshotSlack
// ids plus snapshotSpread ids per row present. Dump holds a world to the
// same rule, so the store never replaces a checkpoint it can read with one
// it cannot: a relation that has deleted more than 15 of every 16 rows it
// ever held, beyond the first 65 536, fails its checkpoint and stays
// recoverable from the previous one and the log.
const (
	snapshotSlack  = 1 << 16
	snapshotSpread = 16
)

func checkDensity(rows int, nextID RowID) error {
	if nextID < 0 || nextID-snapshotSlack > snapshotSpread*RowID(rows) {
		return fmt.Errorf("id counter %d for %d rows: negative or more than %d + %d per row", nextID, rows, snapshotSlack, snapshotSpread)
	}
	return nil
}

// wireValue is the gob-encodable form of Value.
type wireValue struct {
	Kind Type
	I    int64
	F    float64
	S    string
}

// wireRelation is the gob-encodable form of Relation: the live rows in
// ascending id order. Snapshots written before the store went columnar
// also carry an Indexes field, which gob skips.
type wireRelation struct {
	Name   string
	Cols   []Column
	NextID RowID
	RowIDs []RowID
	Rows   [][]wireValue
}

type wireDB struct {
	Relations []wireRelation
}

// Dump serializes the database to w using encoding/gob.
func (db *DB) Dump(w io.Writer) error {
	var wire wireDB
	for _, name := range db.Names() {
		rel := db.rels[name]
		if err := checkDensity(rel.live, RowID(rel.n)); err != nil {
			return fmt.Errorf("relstore: relation %q is too sparse to snapshot: %w", name, err)
		}
		wr := wireRelation{
			Name:   name,
			Cols:   rel.schema.Cols,
			NextID: RowID(rel.n),
			RowIDs: make([]RowID, 0, rel.live),
			Rows:   make([][]wireValue, 0, rel.live),
		}
		// Every row is a window on one backing array: one allocation per
		// relation rather than one per row.
		vals := make([]wireValue, 0, rel.live*len(rel.cols))
		rel.Scan(func(id RowID, t Tuple) bool {
			wr.RowIDs = append(wr.RowIDs, id)
			start := len(vals)
			for _, v := range t {
				vals = append(vals, wireValue{Kind: v.kind, I: v.i, F: v.f, S: v.s})
			}
			wr.Rows = append(wr.Rows, vals[start:len(vals):len(vals)])
			return true
		})
		wire.Relations = append(wire.Relations, wr)
	}
	return gob.NewEncoder(w).Encode(&wire)
}

// ReadDB deserializes a database previously written with Dump. Input that
// is not a well-formed snapshot is reported as an error (ErrBadSnapshot
// once it got past gob), and the memory used is bounded by the rows
// actually present in the stream (see checkDensity), whatever its headers
// claim.
func ReadDB(r io.Reader) (*DB, error) {
	var wire wireDB
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("relstore: decoding snapshot: %w", err)
	}
	db := NewDB()
	for i := range wire.Relations {
		if err := db.readRelation(&wire.Relations[i]); err != nil {
			return nil, fmt.Errorf("relstore: snapshot relation %q: %w: %w", wire.Relations[i].Name, ErrBadSnapshot, err)
		}
	}
	return db, nil
}

func (db *DB) readRelation(wr *wireRelation) error {
	for _, c := range wr.Cols {
		if c.Type > TBool {
			return fmt.Errorf("column %q has unknown type %v", c.Name, c.Type)
		}
	}
	schema, err := NewSchema(wr.Name, wr.Cols...)
	if err != nil {
		return err
	}
	rel, err := db.Create(schema)
	if err != nil {
		return err
	}
	if len(wr.RowIDs) != len(wr.Rows) {
		return fmt.Errorf("%d ids but %d rows", len(wr.RowIDs), len(wr.Rows))
	}
	if err := checkDensity(len(wr.Rows), wr.NextID); err != nil {
		return err
	}
	row := make(Tuple, len(wr.Cols))
	prev := RowID(-1)
	for i, id := range wr.RowIDs {
		// Ids are non-negative, ascend strictly and stay below the counter,
		// so none repeats and no later Insert hands out one that is in use.
		if id <= prev || id >= wr.NextID {
			return fmt.Errorf("row id %d after %d is negative, out of order or not below the id counter %d", id, prev, wr.NextID)
		}
		prev = id
		if len(wr.Rows[i]) != len(row) {
			return fmt.Errorf("row %d has %d values, want %d", id, len(wr.Rows[i]), len(row))
		}
		for j, wv := range wr.Rows[i] {
			row[j] = normalized(wv)
		}
		// The ids the stream skipped become tombstones.
		if gap := int(id) - rel.n; gap > 0 {
			rel.extend(gap)
		}
		if _, err := rel.Insert(row); err != nil {
			return fmt.Errorf("row %d: %w", id, err)
		}
	}
	if gap := int(wr.NextID) - rel.n; gap > 0 {
		rel.extend(gap)
	}
	return nil
}

// normalized converts a wire value, dropping whatever the stream put in
// the payload fields its kind does not use.
func normalized(w wireValue) Value {
	switch w.Kind {
	case TInt:
		return Int(w.I)
	case TBool:
		return Bool(w.I != 0)
	case TFloat:
		return Float(w.F)
	case TString:
		return String(w.S)
	}
	return Value{kind: w.Kind} // no column accepts it: Insert reports it
}
