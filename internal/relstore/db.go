package relstore

import (
	"fmt"
	"sort"
)

// DB is a catalog of named relations representing one deterministic
// possible world.
type DB struct {
	rels map[string]*Relation
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{rels: make(map[string]*Relation)}
}

// Create adds an empty relation with the given schema and returns it.
func (db *DB) Create(schema *Schema) (*Relation, error) {
	if schema == nil || schema.Name == "" {
		return nil, fmt.Errorf("relstore: create: schema must be named")
	}
	if _, dup := db.rels[schema.Name]; dup {
		return nil, fmt.Errorf("relstore: create: relation %q already exists", schema.Name)
	}
	r := NewRelation(schema)
	db.rels[schema.Name] = r
	return r, nil
}

// MustCreate is Create that panics on error.
func (db *DB) MustCreate(schema *Schema) *Relation {
	r, err := db.Create(schema)
	if err != nil {
		panic(err)
	}
	return r
}

// Relation returns the named relation, or an error if it does not exist.
func (db *DB) Relation(name string) (*Relation, error) {
	r, ok := db.rels[name]
	if !ok {
		return nil, fmt.Errorf("relstore: unknown relation %q", name)
	}
	return r, nil
}

// Drop removes the named relation.
func (db *DB) Drop(name string) error {
	if _, ok := db.rels[name]; !ok {
		return fmt.Errorf("relstore: unknown relation %q", name)
	}
	delete(db.rels, name)
	return nil
}

// Names returns the catalog's relation names in sorted order.
func (db *DB) Names() []string {
	out := make([]string, 0, len(db.rels))
	for n := range db.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Clone returns an identical, independent possible world. The two share
// every column vector until one of them writes to it (see Relation), so
// the cost does not depend on the number of rows.
func (db *DB) Clone() *DB {
	c := NewDB()
	for n, r := range db.rels {
		c.rels[n] = r.Clone()
	}
	return c
}
