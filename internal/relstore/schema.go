package relstore

import (
	"cmp"
	"fmt"
)

// Column describes one attribute of a relation schema.
type Column struct {
	Name string
	Type Type
}

// Schema describes the name and typed attributes of a relation. The
// clones of a world share their schemas.
type Schema struct {
	Name string
	Cols []Column

	byName map[string]int
	// hidden marks the columns whose values a model samples: every
	// possible world holds its own value there, and every other column
	// is evidence, the same in all of them. The model that binds a
	// world.Field to a column declares it (DB.DeclareHidden); a snapshot
	// does not persist the marks. Nil until the first declaration.
	hidden []bool
}

// NewSchema builds a schema and validates that column names are unique.
func NewSchema(name string, cols ...Column) (*Schema, error) {
	s := &Schema{Name: name, Cols: cols, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("relstore: schema %q: column %d has empty name", name, i)
		}
		if _, dup := s.byName[c.Name]; dup {
			return nil, fmt.Errorf("relstore: schema %q: duplicate column %q", name, c.Name)
		}
		s.byName[c.Name] = i
	}
	return s, nil
}

// MustSchema is like NewSchema but panics on error. Intended for
// statically known schemas in tests and examples.
func MustSchema(name string, cols ...Column) *Schema {
	s, err := NewSchema(name, cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// ColIndex returns the position of the named column, or -1 if absent.
func (s *Schema) ColIndex(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// Hidden reports whether column i is declared hidden.
func (s *Schema) Hidden(i int) bool { return i < len(s.hidden) && s.hidden[i] }

// Arity returns the number of columns.
func (s *Schema) Arity() int { return len(s.Cols) }

// Validate checks that the tuple conforms to the schema.
func (s *Schema) Validate(t Tuple) error {
	if len(t) != len(s.Cols) {
		return fmt.Errorf("relstore: relation %q: tuple arity %d, want %d", s.Name, len(t), len(s.Cols))
	}
	for i, v := range t {
		if err := s.ValidateCol(i, v); err != nil {
			return err
		}
	}
	return nil
}

// ValidateCol checks that v may be stored in column i, which must be in
// range.
func (s *Schema) ValidateCol(i int, v Value) error {
	want, got := s.Cols[i].Type, v.Kind()
	// Ints are acceptable where floats are expected.
	if got != want && !(want == TFloat && got == TInt) {
		return fmt.Errorf("relstore: relation %q: column %q has %v, want %v", s.Name, s.Cols[i].Name, got, want)
	}
	return nil
}

// Tuple is a realization of a value for each attribute of some schema.
type Tuple []Value

// Clone returns an independent copy of the tuple.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// AppendKey appends the tuple's injective key encoding — the
// concatenation of its values' self-delimiting encodings — to dst and
// returns the extended slice. Callers on hot paths reuse dst as a scratch
// buffer so key construction is allocation-free.
func (t Tuple) AppendKey(dst []byte) []byte {
	for _, v := range t {
		dst = v.appendKey(dst)
	}
	return dst
}

// Key returns an injective string encoding of the whole tuple, usable as a
// map key for multiset semantics.
func (t Tuple) Key() string { return string(t.AppendKey(nil)) }

// CompareKey orders t and o exactly as bytes.Compare orders their keys
// (AppendKey), without building either. The value encodings are
// self-delimiting, so the first pair of values whose encodings differ
// decides, and within a pair the kind tag, then the payload bits, then
// a string's length encoding and bytes.
func (t Tuple) CompareKey(o Tuple) int {
	for i := range min(len(t), len(o)) {
		if c := t[i].compareKey(&o[i]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(t), len(o))
}

// Equal reports element-wise equality with o.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Identical reports whether t and o encode to the same key: the same
// kinds and payloads, position by position. It is stricter than Equal,
// which compares TInt and TFloat numerically and −0 with 0 as equal while
// their keys differ; anything that cancels tuples against each other the
// way a keyed bag would must use this.
func (t Tuple) Identical(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	if len(t) > 0 && &t[0] == &o[0] {
		return true
	}
	for i := range t {
		if !t[i].Identical(o[i]) {
			return false
		}
	}
	return true
}

// String renders the tuple for display.
func (t Tuple) String() string {
	b := []byte{'('}
	for i, v := range t {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, v.String()...)
	}
	return string(append(b, ')'))
}
