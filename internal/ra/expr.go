package ra

import (
	"fmt"
	"slices"

	"factordb/internal/relstore"
)

// Expr is an unbound scalar expression appearing in predicates.
type Expr interface {
	// bind resolves column references against sch and type-checks,
	// returning an executable expression and its result type.
	bind(sch *RowSchema) (BExpr, relstore.Type, error)
	String() string
}

// BExpr is a bound (index-resolved, type-checked) expression that can be
// evaluated against an output row without allocation or error.
type BExpr interface {
	Eval(row relstore.Tuple) relstore.Value
}

// ---- Column and constant operands ----

type colExpr struct{ ref ColRef }

// Col references a column by (alias, name).
func Col(ref ColRef) Expr { return colExpr{ref} }

func (e colExpr) String() string { return e.ref.String() }

func (e colExpr) bind(sch *RowSchema) (BExpr, relstore.Type, error) {
	i, err := sch.Resolve(e.ref)
	if err != nil {
		return nil, 0, err
	}
	return boundCol{i}, sch.Cols[i].Type, nil
}

type boundCol struct{ idx int }

func (b boundCol) Eval(row relstore.Tuple) relstore.Value { return row[b.idx] }

type constExpr struct{ v relstore.Value }

// Const embeds a literal value in an expression.
func Const(v relstore.Value) Expr { return constExpr{v} }

func (e constExpr) String() string {
	if e.v.Kind() == relstore.TString {
		return fmt.Sprintf("%q", e.v.AsString())
	}
	return e.v.String()
}

func (e constExpr) bind(*RowSchema) (BExpr, relstore.Type, error) {
	return boundConst{e.v}, e.v.Kind(), nil
}

type boundConst struct{ v relstore.Value }

func (b boundConst) Eval(relstore.Tuple) relstore.Value { return b.v }

// ---- Comparisons ----

// CmpOp enumerates comparison operators.
type CmpOp uint8

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	}
	return "?"
}

type cmpExpr struct {
	op   CmpOp
	l, r Expr
}

// Cmp builds a comparison predicate l op r.
func Cmp(op CmpOp, l, r Expr) Expr { return cmpExpr{op, l, r} }

// Eq builds l = r.
func Eq(l, r Expr) Expr { return cmpExpr{OpEq, l, r} }

// String parenthesizes the comparison so renderings are injective over
// expression structure: a = (b = c) and (a = b) = c must not both read
// "a = b = c" — the canonical-plan fingerprint hashes this rendering.
func (e cmpExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", e.l, e.op, e.r)
}

func comparable2(a, b relstore.Type) bool {
	num := func(t relstore.Type) bool { return t == relstore.TInt || t == relstore.TFloat }
	if num(a) && num(b) {
		return true
	}
	return a == b
}

func (e cmpExpr) bind(sch *RowSchema) (BExpr, relstore.Type, error) {
	bl, tl, err := e.l.bind(sch)
	if err != nil {
		return nil, 0, err
	}
	br, tr, err := e.r.bind(sch)
	if err != nil {
		return nil, 0, err
	}
	if !comparable2(tl, tr) {
		return nil, 0, fmt.Errorf("ra: cannot compare %v with %v in %s", tl, tr, e)
	}
	if (e.op != OpEq && e.op != OpNe) && tl == relstore.TBool {
		return nil, 0, fmt.Errorf("ra: ordered comparison of booleans in %s", e)
	}
	return boundCmp{e.op, bl, br}, relstore.TBool, nil
}

type boundCmp struct {
	op   CmpOp
	l, r BExpr
}

func (b boundCmp) Eval(row relstore.Tuple) relstore.Value {
	lv, rv := b.l.Eval(row), b.r.Eval(row)
	var res bool
	switch b.op {
	case OpEq:
		res = lv.Equal(rv)
	case OpNe:
		res = !lv.Equal(rv)
	case OpLt:
		res = lv.Less(rv)
	case OpLe:
		res = !rv.Less(lv)
	case OpGt:
		res = rv.Less(lv)
	case OpGe:
		res = !lv.Less(rv)
	}
	return relstore.Bool(res)
}

// ---- Boolean connectives ----

type andExpr struct{ terms []Expr }

// And conjoins predicates; And() with no terms is TRUE.
func And(terms ...Expr) Expr {
	if len(terms) == 1 {
		return terms[0]
	}
	return andExpr{terms}
}

func (e andExpr) String() string {
	s := ""
	for i, t := range e.terms {
		if i > 0 {
			s += " AND "
		}
		s += t.String()
	}
	if s == "" {
		return "TRUE"
	}
	return "(" + s + ")"
}

func (e andExpr) bind(sch *RowSchema) (BExpr, relstore.Type, error) {
	bs, err := bindBoolTerms(sch, e.terms, e)
	if err != nil {
		return nil, 0, err
	}
	return boundAnd{bs}, relstore.TBool, nil
}

type boundAnd struct{ terms []BExpr }

func (b boundAnd) Eval(row relstore.Tuple) relstore.Value {
	for _, t := range b.terms {
		if !t.Eval(row).AsBool() {
			return relstore.Bool(false)
		}
	}
	return relstore.Bool(true)
}

type orExpr struct{ terms []Expr }

// Or disjoins predicates; Or() with no terms is FALSE.
func Or(terms ...Expr) Expr {
	if len(terms) == 1 {
		return terms[0]
	}
	return orExpr{terms}
}

func (e orExpr) String() string {
	s := ""
	for i, t := range e.terms {
		if i > 0 {
			s += " OR "
		}
		s += t.String()
	}
	if s == "" {
		return "FALSE"
	}
	return "(" + s + ")"
}

func (e orExpr) bind(sch *RowSchema) (BExpr, relstore.Type, error) {
	bs, err := bindBoolTerms(sch, e.terms, e)
	if err != nil {
		return nil, 0, err
	}
	return boundOr{bs}, relstore.TBool, nil
}

type boundOr struct{ terms []BExpr }

func (b boundOr) Eval(row relstore.Tuple) relstore.Value {
	for _, t := range b.terms {
		if t.Eval(row).AsBool() {
			return relstore.Bool(true)
		}
	}
	return relstore.Bool(false)
}

type notExpr struct{ inner Expr }

// Not negates a predicate.
func Not(inner Expr) Expr { return notExpr{inner} }

func (e notExpr) String() string { return "NOT " + e.inner.String() }

func (e notExpr) bind(sch *RowSchema) (BExpr, relstore.Type, error) {
	b, t, err := e.inner.bind(sch)
	if err != nil {
		return nil, 0, err
	}
	if t != relstore.TBool {
		return nil, 0, fmt.Errorf("ra: NOT applied to non-boolean %s", e.inner)
	}
	return boundNot{b}, relstore.TBool, nil
}

type boundNot struct{ inner BExpr }

func (b boundNot) Eval(row relstore.Tuple) relstore.Value {
	return relstore.Bool(!b.inner.Eval(row).AsBool())
}

func bindBoolTerms(sch *RowSchema, terms []Expr, parent Expr) ([]BExpr, error) {
	bs := make([]BExpr, len(terms))
	for i, t := range terms {
		b, ty, err := t.bind(sch)
		if err != nil {
			return nil, err
		}
		if ty != relstore.TBool {
			return nil, fmt.Errorf("ra: non-boolean term %s in %s", t, parent)
		}
		bs[i] = b
	}
	return bs, nil
}

// BindPredicate binds an expression against a schema and requires a boolean
// result. Exposed for components (such as ivm) that evaluate residual
// predicates themselves.
func BindPredicate(sch *RowSchema, e Expr) (BExpr, error) {
	b, t, err := e.bind(sch)
	if err != nil {
		return nil, err
	}
	if t != relstore.TBool {
		return nil, fmt.Errorf("ra: predicate %s is %v, want BOOL", e, t)
	}
	return b, nil
}

// ScanFilter turns a bound scan predicate (nil: none) into the arguments
// of relstore.ScanWhere: a top-level `column = constant` conjunct, which
// the store tests on the column vector before it materializes the row
// (eqCol is -1 when the predicate has none), and keep, which evaluates
// whatever else the predicate says (nil when nothing is left). Together
// they accept exactly the rows pred does.
func ScanFilter(pred BExpr) (eqCol int, eqVal relstore.Value, keep func(relstore.Tuple) bool) {
	if pred == nil {
		return -1, relstore.Value{}, nil
	}
	eqCol, eqVal, rest := splitPoint(pred)
	if rest != nil {
		keep = func(t relstore.Tuple) bool { return rest.Eval(t).AsBool() }
	}
	return eqCol, eqVal, keep
}

// splitPoint takes the first `column = constant` conjunct, in either
// operand order, off the top level of pred. col is -1 and rest is pred
// when there is none; rest is nil when the conjunct was all of pred.
func splitPoint(pred BExpr) (col int, val relstore.Value, rest BExpr) {
	terms := []BExpr{pred}
	if and, ok := pred.(boundAnd); ok {
		terms = and.terms
	}
	for i, t := range terms {
		cmp, ok := t.(boundCmp)
		if !ok || cmp.op != OpEq {
			continue
		}
		l, r := cmp.l, cmp.r
		if _, isCol := l.(boundCol); !isCol {
			l, r = r, l
		}
		c, cok := l.(boundCol)
		k, kok := r.(boundConst)
		if !cok || !kok {
			continue
		}
		switch others := slices.Delete(slices.Clone(terms), i, i+1); len(others) {
		case 0:
		case 1:
			rest = others[0]
		default:
			rest = boundAnd{others}
		}
		return c.idx, k.v, rest
	}
	return -1, relstore.Value{}, pred
}
