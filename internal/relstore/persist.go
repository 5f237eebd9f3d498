package relstore

import (
	"encoding/gob"
	"fmt"
	"io"
)

// Snapshot persistence: a whole database (one possible world) can be
// written to and restored from a stream — the world encoding inside
// internal/store's checkpoint files.

// wireValue is the gob-encodable form of Value.
type wireValue struct {
	Kind Type
	I    int64
	F    float64
	S    string
}

// wireRelation is the gob-encodable form of Relation.
type wireRelation struct {
	Name    string
	Cols    []Column
	NextID  RowID
	RowIDs  []RowID
	Rows    [][]wireValue
	Indexes []string // indexed column names
}

type wireDB struct {
	Relations []wireRelation
}

func toWire(v Value) wireValue { return wireValue{Kind: v.kind, I: v.i, F: v.f, S: v.s} }

func fromWire(w wireValue) Value { return Value{kind: w.Kind, i: w.I, f: w.F, s: w.S} }

// Dump serializes the database to w using encoding/gob.
func (db *DB) Dump(w io.Writer) error {
	var wire wireDB
	for _, name := range db.Names() {
		rel := db.rels[name]
		wr := wireRelation{
			Name:   name,
			Cols:   rel.schema.Cols,
			NextID: rel.nextID,
		}
		rel.ScanSorted(func(id RowID, t Tuple) bool {
			wr.RowIDs = append(wr.RowIDs, id)
			row := make([]wireValue, len(t))
			for i, v := range t {
				row[i] = toWire(v)
			}
			wr.Rows = append(wr.Rows, row)
			return true
		})
		for ci := range rel.indexes {
			wr.Indexes = append(wr.Indexes, rel.schema.Cols[ci].Name)
		}
		wire.Relations = append(wire.Relations, wr)
	}
	return gob.NewEncoder(w).Encode(&wire)
}

// ReadDB deserializes a database previously written with Dump.
func ReadDB(r io.Reader) (*DB, error) {
	var wire wireDB
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("relstore: decoding snapshot: %w", err)
	}
	db := NewDB()
	for _, wr := range wire.Relations {
		schema, err := NewSchema(wr.Name, wr.Cols...)
		if err != nil {
			return nil, fmt.Errorf("relstore: decoding snapshot: %w", err)
		}
		rel, err := db.Create(schema)
		if err != nil {
			return nil, err
		}
		if len(wr.RowIDs) != len(wr.Rows) {
			return nil, fmt.Errorf("relstore: snapshot relation %q: %d ids but %d rows", wr.Name, len(wr.RowIDs), len(wr.Rows))
		}
		for i, id := range wr.RowIDs {
			row := make(Tuple, len(wr.Rows[i]))
			for j, wv := range wr.Rows[i] {
				row[j] = fromWire(wv)
			}
			if err := schema.Validate(row); err != nil {
				return nil, fmt.Errorf("relstore: snapshot relation %q row %d: %w", wr.Name, id, err)
			}
			rel.rows[id] = row
		}
		rel.nextID = wr.NextID
		for _, col := range wr.Indexes {
			if err := rel.CreateIndex(col); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}
