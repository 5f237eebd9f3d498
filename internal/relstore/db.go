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

// DeclareHidden marks column col of the named relation hidden: a model
// samples its values. The mark lands on the schema every clone of the
// relation shares, so declare before the world is cloned or read
// concurrently, when the model is bound to a freshly loaded or recovered
// world.
func (db *DB) DeclareHidden(rel string, col int) error {
	r, err := db.Relation(rel)
	if err != nil {
		return err
	}
	if col < 0 || col >= r.schema.Arity() {
		return fmt.Errorf("relstore: column %d out of range in %q", col, rel)
	}
	if r.schema.hidden == nil {
		r.schema.hidden = make([]bool, r.schema.Arity())
	}
	r.schema.hidden[col] = true
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
