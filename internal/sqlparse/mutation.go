package sqlparse

import (
	"fmt"

	"factordb/internal/ra"
	"factordb/internal/relstore"
)

// CompileExec parses one DML statement (INSERT, UPDATE or DELETE) and
// lowers it to the typed mutation IR. A SELECT is rejected with a pointer
// at the read API, mirroring Compile's rejection of DML.
func CompileExec(sql string) (mut ra.Mutation, err error) {
	err = parse(sql, nil, UseExec, func(stmt *Statement) (err error) {
		mut, err = lower(stmt)
		return err
	})
	return mut, err
}

// explainOnlyQuery is the error text of an EXPLAIN issued anywhere but
// the query API.
const explainOnlyQuery = "EXPLAIN is a diagnostic statement (issue it through the factordb query API)"

// misuse reports a statement issued through an entry point that does not
// take its kind — the read/write API split — or nil.
func misuse(sql string, stmt *Statement, use Use) error {
	switch {
	case use == UseQuery && stmt.Select == nil && stmt.Explain == nil:
		return posErrf(sql, 0, "%s is a DML statement, not a query (use Exec)", stmt.Kind())
	case use == UseExec && stmt.Explain != nil:
		return posErrf(sql, 0, explainOnlyQuery)
	case use == UseExec && stmt.Select != nil:
		return posErrf(sql, 0, "SELECT is a query, not a DML statement (use Query)")
	}
	return nil
}

// lower lowers a parsed INSERT, UPDATE or DELETE. The mutation shares
// nothing with the tree, whose slices sit in a pooled parser's arena.
func lower(stmt *Statement) (ra.Mutation, error) {
	switch {
	case stmt.Insert != nil:
		return lowerInsert(stmt.Insert)
	case stmt.Update != nil:
		return lowerUpdate(stmt.Update)
	}
	return lowerDelete(stmt.Delete)
}

func lowerInsert(st *InsertStmt) (ra.Mutation, error) {
	m := &ra.Insert{TableName: st.Table, Columns: append([]string(nil), st.Columns...)}
	for _, row := range st.Rows {
		vals := make([]relstore.Value, len(row))
		for i, op := range row {
			v, err := operandConst(op)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		m.Rows = append(m.Rows, vals)
	}
	return m, nil
}

func lowerUpdate(st *UpdateStmt) (ra.Mutation, error) {
	m := &ra.Update{TableName: st.Table.Name, Alias: st.Table.Alias}
	for _, a := range st.Set {
		v, err := operandConst(a.Val)
		if err != nil {
			return nil, err
		}
		m.Set = append(m.Set, ra.SetClause{Col: a.Col, Val: v})
	}
	where, err := lowerDMLWhere(st.Where, st.Table.Alias)
	if err != nil {
		return nil, err
	}
	m.Where = where
	return m, nil
}

func lowerDelete(st *DeleteStmt) (ra.Mutation, error) {
	where, err := lowerDMLWhere(st.Where, st.Table.Alias)
	if err != nil {
		return nil, err
	}
	return &ra.Delete{TableName: st.Table.Name, Alias: st.Table.Alias, Where: where}, nil
}

// lowerDMLWhere conjoins the WHERE conjuncts of a single-table mutation.
// Column references must be unqualified or qualified by the statement's
// own table alias.
func lowerDMLWhere(conds []Cond, alias string) (ra.Expr, error) {
	if len(conds) == 0 {
		return nil, nil
	}
	ref := func(col ColName) (ra.ColRef, error) {
		if col.Qual != "" && col.Qual != alias {
			return ra.ColRef{}, fmt.Errorf("sqlparse: unknown table alias %q in %s", col.Qual, col)
		}
		return ra.C(col.Qual, col.Name), nil
	}
	exprs := make([]ra.Expr, len(conds))
	for i, c := range conds {
		l, err := ref(c.Left)
		if err != nil {
			return nil, err
		}
		if c.In != nil {
			expr, err := inListExpr(l, c.In)
			if err != nil {
				return nil, err
			}
			exprs[i] = expr
			continue
		}
		op, err := cmpOpOf(c.Op)
		if err != nil {
			return nil, err
		}
		var rhs ra.Expr
		if c.Right.IsCol {
			r, err := ref(c.Right.Col)
			if err != nil {
				return nil, err
			}
			rhs = ra.Col(r)
		} else {
			v, err := operandConst(c.Right)
			if err != nil {
				return nil, err
			}
			rhs = ra.Const(v)
		}
		exprs[i] = ra.Cmp(op, ra.Col(l), rhs)
	}
	return ra.And(exprs...), nil
}
