package ra

import (
	"fmt"
	"strings"

	"factordb/internal/relstore"
)

// Mutation is the typed IR of one DML statement (INSERT, UPDATE or
// DELETE), the write-path counterpart of Plan. The SQL front end lowers
// statements to this form; the world layer resolves a Mutation against a
// concrete possible world into row-level ops that replay identically on
// every chain's clone (see world.ResolveMutation).
//
// Mutations target the evidence columns of the single possible world: the
// paper's update model is "mutate the world, keep sampling", so a write
// never recomputes lineage — it feeds the same Δ⁻/Δ⁺ delta tables the
// sampler feeds. The factor graph does not see a write yet.
type Mutation interface {
	// Table names the mutated relation.
	Table() string
	String() string
	mutation() // sealed
}

// SetClause is one assignment of an UPDATE's SET list. Values are
// literals: the dialect has no expressions on the write path.
type SetClause struct {
	Col string
	Val relstore.Value
}

// Insert appends tuples to a relation. When Columns is empty the rows are
// in schema order; otherwise Columns must name every column of the schema
// (the store has no column defaults) and rows are reordered at resolve
// time.
type Insert struct {
	TableName string
	Columns   []string
	Rows      [][]relstore.Value
}

// Update rewrites the SET columns of every row satisfying Where. A nil
// Where matches all rows. Column references in Where are qualified by
// Alias (or unqualified).
type Update struct {
	TableName string
	Alias     string
	Set       []SetClause
	Where     Expr
}

// Delete removes every row satisfying Where; nil matches all rows.
type Delete struct {
	TableName string
	Alias     string
	Where     Expr
}

func (m *Insert) Table() string { return m.TableName }
func (m *Update) Table() string { return m.TableName }
func (m *Delete) Table() string { return m.TableName }

func (*Insert) mutation() {}
func (*Update) mutation() {}
func (*Delete) mutation() {}

func (m *Insert) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "INSERT INTO %s", m.TableName)
	if len(m.Columns) > 0 {
		sb.WriteString(" (" + strings.Join(m.Columns, ", ") + ")")
	}
	sb.WriteString(" VALUES ")
	for i, row := range m.Rows {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteByte('(')
		for j, v := range row {
			if j > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(Const(v).String())
		}
		sb.WriteByte(')')
	}
	return sb.String()
}

func (m *Update) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "UPDATE %s", m.TableName)
	if m.Alias != "" && m.Alias != m.TableName {
		sb.WriteString(" " + m.Alias)
	}
	sb.WriteString(" SET ")
	for i, s := range m.Set {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s = %s", s.Col, Const(s.Val))
	}
	if m.Where != nil {
		fmt.Fprintf(&sb, " WHERE %s", m.Where)
	}
	return sb.String()
}

func (m *Delete) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "DELETE FROM %s", m.TableName)
	if m.Alias != "" && m.Alias != m.TableName {
		sb.WriteString(" " + m.Alias)
	}
	if m.Where != nil {
		fmt.Fprintf(&sb, " WHERE %s", m.Where)
	}
	return sb.String()
}
