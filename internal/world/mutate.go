package world

import (
	"fmt"

	"factordb/internal/ra"
	"factordb/internal/relstore"
)

// OpKind enumerates the concrete mutation steps a resolved DML statement
// decomposes into.
type OpKind uint8

// Op kinds.
const (
	OpInsert OpKind = iota
	OpUpdate
	OpDelete
)

func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Op is one concrete, world-independent mutation step: row identities and
// values fully resolved, ready to replay on any clone of the world it was
// resolved against. This is the unit the serving engine fans out — the
// predicate of an UPDATE or DELETE is evaluated once (ResolveMutation)
// and every chain applies the identical op list, so the chains' worlds
// never diverge on evidence even though their hidden fields differ.
type Op struct {
	Kind OpKind
	Rel  string
	Row  relstore.RowID   // OpUpdate, OpDelete
	Cols []int            // OpUpdate: column positions being assigned
	Vals []relstore.Value // OpUpdate: parallel to Cols; OpInsert: the full tuple in schema order
}

// ResolveMutation evaluates a typed DML statement against one concrete
// world, returning the row-level ops it decomposes into. Nothing is
// applied: resolution validates everything that can fail (schema
// conformance, column names, predicate types) so that a later ApplyOps on
// any clone sharing this world's row identities cannot.
//
// A write targets evidence only. An UPDATE that sets a column the schema
// declares hidden is refused: the model owns a sampled variable's state. So is an UPDATE or DELETE whose WHERE reads one:
// which rows it matched would depend on the walk of the world it is
// resolved against. Both errors name the column. An INSERT's value for
// a hidden column is accepted as the new row's initial state. Every
// predicate left is world-independent, since evidence is identical
// across all clones.
func ResolveMutation(db *relstore.DB, mut ra.Mutation) ([]Op, error) {
	rel, err := db.Relation(mut.Table())
	if err != nil {
		return nil, err
	}
	switch m := mut.(type) {
	case *ra.Insert:
		return resolveInsert(rel, m)
	case *ra.Update:
		return resolveUpdate(rel, m)
	case *ra.Delete:
		return resolveDelete(rel, m)
	}
	return nil, fmt.Errorf("world: unknown mutation type %T", mut)
}

func resolveInsert(rel *relstore.Relation, m *ra.Insert) ([]Op, error) {
	sch := rel.Schema()
	// Map statement column order onto schema positions. The store has no
	// column defaults, so an explicit column list must cover the schema.
	perm := make([]int, len(sch.Cols)) // schema position -> row position
	if len(m.Columns) == 0 {
		for i := range perm {
			perm[i] = i
		}
	} else {
		if len(m.Columns) != len(sch.Cols) {
			return nil, fmt.Errorf("world: INSERT INTO %s names %d columns, schema has %d (no defaults)",
				sch.Name, len(m.Columns), len(sch.Cols))
		}
		seen := make(map[string]bool, len(m.Columns))
		for pos, name := range m.Columns {
			ci := sch.ColIndex(name)
			if ci < 0 {
				return nil, fmt.Errorf("world: INSERT INTO %s: no column %q", sch.Name, name)
			}
			if seen[name] {
				return nil, fmt.Errorf("world: INSERT INTO %s: duplicate column %q", sch.Name, name)
			}
			seen[name] = true
			perm[ci] = pos
		}
	}
	ops := make([]Op, 0, len(m.Rows))
	for r, row := range m.Rows {
		if len(row) != len(sch.Cols) {
			return nil, fmt.Errorf("world: INSERT INTO %s: row %d has %d values, want %d",
				sch.Name, r+1, len(row), len(sch.Cols))
		}
		t := make(relstore.Tuple, len(sch.Cols))
		for ci := range sch.Cols {
			t[ci] = row[perm[ci]]
		}
		if err := sch.Validate(t); err != nil {
			return nil, fmt.Errorf("world: INSERT INTO %s: row %d: %w", sch.Name, r+1, err)
		}
		ops = append(ops, Op{Kind: OpInsert, Rel: sch.Name, Vals: t})
	}
	return ops, nil
}

func resolveUpdate(rel *relstore.Relation, m *ra.Update) ([]Op, error) {
	sch := rel.Schema()
	cols := make([]int, len(m.Set))
	vals := make([]relstore.Value, len(m.Set))
	seen := make(map[string]bool, len(m.Set))
	for i, s := range m.Set {
		ci := sch.ColIndex(s.Col)
		if ci < 0 {
			return nil, fmt.Errorf("world: UPDATE %s: no column %q", sch.Name, s.Col)
		}
		if seen[s.Col] {
			return nil, fmt.Errorf("world: UPDATE %s: column %q assigned twice", sch.Name, s.Col)
		}
		seen[s.Col] = true
		if sch.Hidden(ci) {
			return nil, fmt.Errorf("world: UPDATE sets hidden column %s.%s (sampled by the model); a write may set evidence only", sch.Name, s.Col)
		}
		want, got := sch.Cols[ci].Type, s.Val.Kind()
		if got != want && !(want == relstore.TFloat && got == relstore.TInt) {
			return nil, fmt.Errorf("world: UPDATE %s: column %q takes %v, got %v", sch.Name, s.Col, want, got)
		}
		cols[i] = ci
		vals[i] = s.Val
	}
	ids, err := matchRows(rel, m.Alias, m.Where)
	if err != nil {
		return nil, err
	}
	var ops []Op
	for _, id := range ids {
		ops = append(ops, Op{Kind: OpUpdate, Rel: sch.Name, Row: id, Cols: cols, Vals: vals})
	}
	return ops, nil
}

func resolveDelete(rel *relstore.Relation, m *ra.Delete) ([]Op, error) {
	ids, err := matchRows(rel, m.Alias, m.Where)
	if err != nil {
		return nil, err
	}
	var ops []Op
	for _, id := range ids {
		ops = append(ops, Op{Kind: OpDelete, Rel: rel.Schema().Name, Row: id})
	}
	return ops, nil
}

// matchRows returns the rows satisfying where (nil = all rows) in
// ascending RowID order — scan order — so resolved op lists are
// deterministic.
func matchRows(rel *relstore.Relation, alias string, where ra.Expr) ([]relstore.RowID, error) {
	sch := rel.Schema()
	if alias == "" {
		alias = sch.Name
	}
	var pred ra.BExpr
	if where != nil {
		rs := &ra.RowSchema{Cols: make([]ra.OutCol, len(sch.Cols))}
		for i, c := range sch.Cols {
			rs.Cols[i] = ra.OutCol{Ref: ra.C(alias, c.Name), Type: c.Type}
		}
		var err error
		pred, err = ra.BindPredicate(rs, where)
		if err != nil {
			return nil, err
		}
		if col := ra.HiddenInPredicate(sch, pred); col != "" {
			return nil, fmt.Errorf("world: WHERE reads hidden column %s (sampled by the model); a write may select on evidence only", col)
		}
	}
	// A `column = constant` conjunct — the usual shape of a write — is
	// tested on the column vector; only the rest needs the row.
	col, val, keep := ra.ScanFilter(pred)
	var ids []relstore.RowID
	rel.ScanWhere(col, val, keep, func(id relstore.RowID, _ relstore.Tuple) bool {
		ids = append(ids, id)
		return true
	})
	return ids, nil
}

// ApplyOps replays a resolved op list through the change log, recording
// every removed tuple in Δ⁻ and every added tuple in Δ⁺ exactly as the
// sampler's field flips do — downstream view maintenance cannot tell a
// user write from an MCMC move. It returns the number of rows affected.
//
// Resolution already validated everything data-dependent, so an error
// here means the target world has diverged from the one the ops were
// resolved against — a caller bug, reported rather than papered over.
// Ops are applied in order; on error the prefix stays applied.
func (l *ChangeLog) ApplyOps(ops []Op) (int64, error) {
	var n int64
	for i, op := range ops {
		var err error
		switch op.Kind {
		case OpInsert:
			_, err = l.Insert(op.Rel, op.Vals)
		case OpUpdate:
			err = l.UpdateFields(FieldRef{Rel: op.Rel, Row: op.Row}, op.Cols, op.Vals)
		case OpDelete:
			err = l.DeleteRow(op.Rel, op.Row)
		default:
			err = fmt.Errorf("world: unknown op kind %v", op.Kind)
		}
		if err != nil {
			return n, fmt.Errorf("world: applying op %d/%d (%v on %s): %w", i+1, len(ops), op.Kind, op.Rel, err)
		}
		n++
	}
	return n, nil
}

// Insert appends a tuple to the named relation, recording it in Δ⁺. The
// assigned RowID is deterministic in the relation's insertion history, so
// clones receiving identical op streams assign identical ids.
func (l *ChangeLog) Insert(rel string, t relstore.Tuple) (relstore.RowID, error) {
	rl, err := l.relation(rel)
	if err != nil {
		return 0, err
	}
	id, err := rl.rel.Insert(t)
	if err != nil {
		return 0, err
	}
	rl.add(rowChange{id: id, col: -1, off: -1})
	l.updates++
	return id, nil
}

// UpdateFields assigns several columns of one row at once, recording the
// old tuple in Δ⁻ and the new one in Δ⁺ (a no-op when nothing changes).
// ref.Col is ignored; cols carries the column positions. Nothing is
// written unless every assignment is valid.
func (l *ChangeLog) UpdateFields(ref FieldRef, cols []int, vals []relstore.Value) error {
	rl, err := l.relation(ref.Rel)
	if err != nil {
		return err
	}
	r := rl.rel
	if !r.Has(ref.Row) {
		return fmt.Errorf("world: relation %q row %d: %w", ref.Rel, ref.Row, relstore.ErrNotFound)
	}
	// Positions in cols of the assignments that change their field.
	var buf [8]int
	changed := buf[:0]
	for i, ci := range cols {
		if ci < 0 || ci >= rl.arity {
			return fmt.Errorf("world: column %d out of range in %q", ci, ref.Rel)
		}
		if cur, _ := r.GetCol(ref.Row, ci); cur.Equal(vals[i]) {
			continue
		}
		if err := r.Schema().ValidateCol(ci, vals[i]); err != nil {
			return err
		}
		changed = append(changed, i)
	}
	if len(changed) == 0 {
		return nil
	}
	if err := rl.touch(ref.Row, -1, relstore.Value{}); err != nil {
		return err
	}
	for _, i := range changed {
		if err := r.SetCol(ref.Row, cols[i], vals[i]); err != nil {
			return err
		}
	}
	l.updates++
	return nil
}

// DeleteRow removes one row, recording its last value in Δ⁻.
func (l *ChangeLog) DeleteRow(rel string, id relstore.RowID) error {
	rl, err := l.relation(rel)
	if err != nil {
		return err
	}
	if err := rl.touch(id, -1, relstore.Value{}); err != nil {
		return err
	}
	if err := rl.rel.Delete(id); err != nil {
		return err
	}
	l.updates++
	return nil
}
