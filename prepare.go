package factordb

import "context"

// Stmt is a prepared statement: its SQL text and placeholder count. The
// statement is compiled once, at Prepare, into the database's plan cache,
// and every execution finds it there — a statement with ? placeholders
// keeps its parsed syntax tree in the cache, so an execution binds the
// arguments as literals into a copy and re-plans without parsing again,
// and one with arguments bound before finds their plan kept there too.
// Stmt is safe for concurrent use and holds no engine resources. Should
// the statement be evicted from the cache (WithPlanCache bounds it), its
// next execution compiles it again.
//
// Placeholders stand for literal values only (strings, integers,
// floats), anywhere the dialect accepts a literal: comparison and IN
// values, INSERT rows, UPDATE assignments, HAVING bounds.
type Stmt struct {
	db     *DB
	sql    string
	params int
}

// Prepare compiles sql once and returns a reusable statement handle. The
// statement may be a SELECT or EXPLAIN (execute with Stmt.Query) or DML
// (execute with Stmt.Exec); ? placeholders are bound positionally at
// execution.
func (db *DB) Prepare(sql string) (*Stmt, error) {
	n, err := db.eng.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return &Stmt{db: db, sql: sql, params: n}, nil
}

// NumInput returns the number of ? placeholders in the statement.
func (s *Stmt) NumInput() int { return s.params }

// Close releases the statement. It holds no engine resources, so Close
// only exists for database/sql symmetry.
func (s *Stmt) Close() error { return nil }

// Query executes a prepared SELECT with the given placeholder arguments
// and the DB's default query options. Results are identical to
// DB.Query with the literals inlined: the bound tree is re-planned,
// canonicalized and bound, so its fingerprint — and with it result-cache
// and shared-view identity — matches the inlined spelling exactly.
func (s *Stmt) Query(ctx context.Context, args ...any) (*Rows, error) {
	return s.db.query(ctx, s.sql, args, nil)
}

// Exec executes a prepared DML statement with the given placeholder
// arguments, with the same commit semantics as DB.Exec.
func (s *Stmt) Exec(ctx context.Context, args ...any) (*ExecResult, error) {
	return s.db.exec(ctx, s.sql, args, nil)
}
