package factordb

import (
	"context"
	"fmt"

	"factordb/internal/ra"
	"factordb/internal/sqlparse"
)

// Stmt is a prepared statement: the SQL is lexed and parsed exactly once,
// at Prepare time, and each execution binds its ? placeholder arguments
// into the retained syntax tree as literals. A statement without
// placeholders is also fully planned at Prepare time, so executing it
// never touches the front end at all. Stmt is safe for concurrent use;
// binding copies, it never mutates the retained tree.
//
// Placeholders stand for literal values only (strings, integers,
// floats), anywhere the dialect accepts a literal: comparison and IN
// values, INSERT rows, UPDATE assignments, HAVING bounds.
type Stmt struct {
	db   *DB
	sql  string
	stmt *sqlparse.Statement

	// Zero-placeholder fast path, compiled once at Prepare.
	comp *sqlparse.Compiled // SELECT
	mut  ra.Mutation        // DML
}

// Prepare parses sql once and returns a reusable statement handle. The
// statement may be a SELECT (execute with Stmt.Query) or DML (execute
// with Stmt.Exec); ? placeholders are bound positionally at execution.
func (db *DB) Prepare(sql string) (*Stmt, error) {
	if db.eng.Closed() {
		return nil, ErrClosed
	}
	stmt, err := sqlparse.ParseStatement(sql)
	if err != nil {
		db.eng.NoteBadQuery()
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	if stmt.Explain != nil {
		db.eng.NoteBadQuery()
		return nil, fmt.Errorf("%w: EXPLAIN cannot be prepared (issue it through Query)", ErrBadQuery)
	}
	s := &Stmt{db: db, sql: sql, stmt: stmt}
	if stmt.Params == 0 {
		// No placeholders: plan now, through the shared cache, so every
		// execution skips the front end entirely.
		if stmt.Select != nil {
			s.comp, _, err = db.plans.CompileQuery(sql)
		} else {
			s.mut, _, err = db.plans.CompileMutation(sql)
		}
		if err != nil {
			db.eng.NoteBadQuery()
			return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
		}
	}
	return s, nil
}

// NumInput returns the number of ? placeholders in the statement.
func (s *Stmt) NumInput() int { return s.stmt.Params }

// Close releases the statement. It holds no engine resources, so Close
// only exists for database/sql symmetry.
func (s *Stmt) Close() error { return nil }

// Query executes a prepared SELECT with the given placeholder arguments
// and the DB's default query options. Results are identical to
// DB.Query with the literals inlined: the bound tree is re-planned and
// canonicalized, so the plan fingerprint — and with it result-cache and
// shared-view identity — matches the inlined spelling exactly.
func (s *Stmt) Query(ctx context.Context, args ...any) (*Rows, error) {
	qo, _ := s.db.queryOpts(nil)
	return s.query(ctx, args, qo)
}

// query is the option-carrying execution core behind Stmt.Query and the
// transports' placeholder-argument paths.
func (s *Stmt) query(ctx context.Context, args []any, qo queryOptions) (*Rows, error) {
	db := s.db
	if db.eng.Closed() {
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.stmt.Select == nil {
		return nil, fmt.Errorf("%w: prepared %s is a DML statement, not a query (use Exec)", ErrBadQuery, s.stmt.Kind())
	}
	// BindArgs validates the argument count even for a zero-placeholder
	// statement (where it returns the retained tree unchanged).
	bound, err := sqlparse.BindArgs(s.stmt, args)
	if err != nil {
		db.eng.NoteBadQuery()
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	comp := s.comp
	if comp == nil {
		plan, spec, err := sqlparse.PlanQuery(bound.Select)
		if err != nil {
			db.eng.NoteBadQuery()
			return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
		}
		comp = &sqlparse.Compiled{Plan: plan, Spec: spec}
	}
	res, err := db.eng.QueryPlan(ctx, s.sql, comp.Plan, comp.Spec, qo.engine())
	return newRows(ctx, res, err, qo)
}

// Exec executes a prepared DML statement with the given placeholder
// arguments, with the same commit semantics as DB.Exec.
func (s *Stmt) Exec(ctx context.Context, args ...any) (*ExecResult, error) {
	return s.exec(ctx, args, execOptions{})
}

// exec is the option-carrying execution core behind Stmt.Exec and the
// transports' placeholder-argument write paths.
func (s *Stmt) exec(ctx context.Context, args []any, eo execOptions) (*ExecResult, error) {
	db := s.db
	if db.eng.Closed() {
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.stmt.Select != nil {
		return nil, fmt.Errorf("%w: prepared SELECT is a query, not a DML statement (use Query)", ErrBadQuery)
	}
	bound, err := sqlparse.BindArgs(s.stmt, args)
	if err != nil {
		db.eng.NoteBadQuery()
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	mut := s.mut
	if mut == nil {
		if mut, err = sqlparse.LowerMutation(s.sql, bound); err != nil {
			db.eng.NoteBadQuery()
			return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
		}
	}
	res, err := db.eng.ExecMutationTraced(ctx, s.sql, mut, eo.engine())
	return newExecResult(res, err)
}

// queryArgs runs one SELECT with placeholder arguments through a
// throwaway prepared statement — the path behind driver-level and HTTP
// query arguments.
func (db *DB) queryArgs(ctx context.Context, sql string, args []any, opts ...QueryOption) (*Rows, error) {
	if len(args) == 0 {
		return db.Query(ctx, sql, opts...)
	}
	qo, err := db.queryOpts(opts)
	if err != nil {
		return nil, err
	}
	stmt, err := db.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return stmt.query(ctx, args, qo)
}

// execArgs runs one DML statement with placeholder arguments through a
// throwaway prepared statement.
func (db *DB) execArgs(ctx context.Context, sql string, args []any, opts ...ExecOption) (*ExecResult, error) {
	if len(args) == 0 {
		return db.Exec(ctx, sql, opts...)
	}
	stmt, err := db.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return stmt.exec(ctx, args, execOpts(opts))
}
