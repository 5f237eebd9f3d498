package sqlparse

import "fmt"

// BindArgs returns a copy of a parsed statement's AST with every ?
// placeholder replaced by the corresponding argument as a literal. The
// input statement is never mutated — operand-bearing slices are deep
// copied — so the plan cache's kept AST can be bound concurrently. The
// bound copy must then be re-planned and re-bound (the canonical form
// ra.Prepare binds folds and reorders literals), which is still far
// cheaper than re-lexing and re-parsing the SQL text.
func BindArgs(stmt *Statement, args []any) (*Statement, error) {
	if len(args) != stmt.Params {
		return nil, arityErr(stmt.Params, len(args))
	}
	if stmt.Params == 0 {
		return stmt, nil
	}
	out := *stmt
	out.Params = 0
	var err error
	switch {
	case stmt.Select != nil:
		q := *stmt.Select
		if q.Where, err = bindConds(q.Where, args); err != nil {
			return nil, err
		}
		if q.Having, err = bindHaving(q.Having, args); err != nil {
			return nil, err
		}
		out.Select = &q
	case stmt.Insert != nil:
		ins := *stmt.Insert
		rows := make([][]Operand, len(ins.Rows))
		for i, row := range ins.Rows {
			nr := make([]Operand, len(row))
			for j, op := range row {
				if nr[j], err = bindOperand(op, args); err != nil {
					return nil, err
				}
			}
			rows[i] = nr
		}
		ins.Rows = rows
		out.Insert = &ins
	case stmt.Update != nil:
		up := *stmt.Update
		set := make([]Assign, len(up.Set))
		for i, a := range up.Set {
			if a.Val, err = bindOperand(a.Val, args); err != nil {
				return nil, err
			}
			set[i] = a
		}
		up.Set = set
		if up.Where, err = bindConds(up.Where, args); err != nil {
			return nil, err
		}
		out.Update = &up
	case stmt.Delete != nil:
		del := *stmt.Delete
		if del.Where, err = bindConds(del.Where, args); err != nil {
			return nil, err
		}
		out.Delete = &del
	case stmt.Explain != nil:
		inner, err := BindArgs(stmt.Explain, args)
		if err != nil {
			return nil, err
		}
		out.Explain = inner
	}
	return &out, nil
}

// arityErr reports a placeholder/argument count mismatch.
func arityErr(params, args int) error {
	return fmt.Errorf("sqlparse: statement has %d placeholders, got %d arguments", params, args)
}

func bindConds(conds []Cond, args []any) ([]Cond, error) {
	if conds == nil {
		return nil, nil
	}
	out := make([]Cond, len(conds))
	var err error
	for i, c := range conds {
		if c.Right, err = bindOperand(c.Right, args); err != nil {
			return nil, err
		}
		if c.SubEq != nil {
			se := *c.SubEq
			if se.A.Conds, err = bindConds(se.A.Conds, args); err != nil {
				return nil, err
			}
			if se.B.Conds, err = bindConds(se.B.Conds, args); err != nil {
				return nil, err
			}
			c.SubEq = &se
		}
		if c.Exists != nil {
			sq := *c.Exists
			if sq.Conds, err = bindConds(sq.Conds, args); err != nil {
				return nil, err
			}
			c.Exists = &sq
		}
		if c.In != nil {
			in := *c.In
			if in.Values != nil {
				vals := make([]Operand, len(in.Values))
				for j, v := range in.Values {
					if vals[j], err = bindOperand(v, args); err != nil {
						return nil, err
					}
				}
				in.Values = vals
			}
			if in.Sub != nil {
				sub := *in.Sub
				if sub.Conds, err = bindConds(sub.Conds, args); err != nil {
					return nil, err
				}
				in.Sub = &sub
			}
			c.In = &in
		}
		out[i] = c
	}
	return out, nil
}

func bindHaving(conds []HavingCond, args []any) ([]HavingCond, error) {
	if conds == nil {
		return nil, nil
	}
	out := make([]HavingCond, len(conds))
	var err error
	for i, c := range conds {
		if c.Right, err = bindOperand(c.Right, args); err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

func bindOperand(op Operand, args []any) (Operand, error) {
	if !op.IsParam {
		return op, nil
	}
	return literalOperand(args[op.Param], op.Param)
}

// literalOperand converts one driver-level argument into a literal
// Operand. The supported types mirror what the SQL dialect can spell
// as a literal: strings, integers and floats.
func literalOperand(arg any, idx int) (Operand, error) {
	switch v := arg.(type) {
	case string:
		return Operand{IsStr: true, Str: v}, nil
	case []byte:
		return Operand{IsStr: true, Str: string(v)}, nil
	case int:
		return Operand{IsInt: true, Int: int64(v), Float: float64(v)}, nil
	case int32:
		return Operand{IsInt: true, Int: int64(v), Float: float64(v)}, nil
	case int64:
		return Operand{IsInt: true, Int: v, Float: float64(v)}, nil
	case float32:
		return Operand{Float: float64(v)}, nil
	case float64:
		return Operand{Float: v}, nil
	}
	return Operand{}, fmt.Errorf("sqlparse: unsupported argument type %T for placeholder ?%d", arg, idx+1)
}
