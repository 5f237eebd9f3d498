package sqlparse

import (
	"fmt"
	"strconv"
	"strings"
)

// ColName is a possibly qualified column reference in the source text.
type ColName struct {
	Qual string
	Name string
}

func (c ColName) String() string {
	if c.Qual == "" {
		return c.Name
	}
	return c.Qual + "." + c.Name
}

// SelectItem is one output of the select list: a plain column or an
// aggregate call.
type SelectItem struct {
	Col  ColName // plain column when Agg == ""
	Agg  string  // "", "COUNT", "SUM", "AVG", "MIN", "MAX"
	Arg  ColName // aggregate argument (ignored for COUNT(*))
	Star bool    // COUNT(*)
	As   string  // optional output name
}

// TableRef is one FROM entry.
type TableRef struct {
	Name  string
	Alias string
}

// Operand is the right-hand side of a comparison: a column, a literal,
// or a ? placeholder parsed without arguments.
type Operand struct {
	IsCol bool
	Col   ColName
	IsStr bool
	Str   string
	IsInt bool
	Int   int64
	Float float64

	IsParam bool
	Param   int // 0-based placeholder position within the statement
}

// Cond is one conjunct of the WHERE clause: a simple comparison, an
// equality between two scalar COUNT(*) subqueries (Query 3's pattern),
// an IN predicate, or an EXISTS predicate.
type Cond struct {
	Left  ColName
	Op    string
	Right Operand

	SubEq  *SubEq
	In     *InPred   // Left IN (...) — Op and Right unused
	Exists *SubQuery // EXISTS (SELECT * FROM t WHERE ...) — Left, Op, Right unused
}

// InPred is the tail of an IN predicate: either a literal list or an
// uncorrelated-column subquery (exactly one of Values/Sub is set).
type InPred struct {
	Not    bool // NOT IN — literal lists only
	Values []Operand
	Sub    *InSub
}

// InSub is col IN (SELECT c FROM t [alias] [WHERE local-predicates]).
type InSub struct {
	Col   ColName // the inner select's column, optionally alias-qualified
	Table TableRef
	Conds []Cond
}

// SubQuery is a correlated subquery body: SELECT COUNT(*) FROM t a
// WHERE ... in subquery-equality position, SELECT * FROM t a WHERE ...
// under EXISTS.
type SubQuery struct {
	Table TableRef
	Conds []Cond
}

// SubEq is an equality between two subqueries.
type SubEq struct {
	A, B SubQuery
}

// HavingCond is one conjunct of the HAVING clause: a comparison whose
// left side is a group column or an aggregate call over the grouped
// input (Left.Agg != "" for aggregate calls).
type HavingCond struct {
	Left  SelectItem
	Op    string
	Right Operand
}

// OrderItem is one ORDER BY key. The unqualified column P names the
// estimated marginal probability of the answer tuple (a pseudo-column
// computed across sampled worlds) unless the query's select list outputs
// a real column of that name.
type OrderItem struct {
	Col  ColName
	Desc bool
}

// Query is the parsed statement.
type Query struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    []Cond
	GroupBy  []ColName
	Having   []HavingCond
	OrderBy  []OrderItem
	Limit    int64 // -1 when the query has no LIMIT clause
}

// Assign is one SET assignment of an UPDATE statement. Values are
// literals or placeholders: the dialect has no expressions on the write
// path.
type Assign struct {
	Col string
	Val Operand
}

// InsertStmt is a parsed INSERT. An empty Columns list means "values in
// schema order"; otherwise the list must cover the whole schema (the
// store has no column defaults), checked when the statement is resolved
// against a catalog.
type InsertStmt struct {
	Table   string
	Columns []string
	Rows    [][]Operand
}

// UpdateStmt is a parsed UPDATE.
type UpdateStmt struct {
	Table TableRef
	Set   []Assign
	Where []Cond
}

// DeleteStmt is a parsed DELETE.
type DeleteStmt struct {
	Table TableRef
	Where []Cond
}

// Statement is one parsed SQL statement: exactly one field is non-nil.
// Params counts the ? placeholders in the statement. A parse with
// arguments reads each placeholder as its argument's literal; without
// them a placeholder stays an Operand with IsParam, and planning the
// statement fails on the first one.
type Statement struct {
	Select  *Query
	Insert  *InsertStmt
	Update  *UpdateStmt
	Delete  *DeleteStmt
	Explain *Statement // EXPLAIN <stmt>: the wrapped statement

	// Analyze marks EXPLAIN ANALYZE: the wrapped statement is executed
	// with per-operator instrumentation rather than merely planned. Only
	// meaningful when Explain is non-nil.
	Analyze bool

	Params int

	target int // byte offset of the wrapped statement (EXPLAIN only)
}

// Kind returns the statement's leading keyword, for diagnostics.
func (s *Statement) Kind() string {
	switch {
	case s.Select != nil:
		return "SELECT"
	case s.Insert != nil:
		return "INSERT"
	case s.Update != nil:
		return "UPDATE"
	case s.Delete != nil:
		return "DELETE"
	case s.Explain != nil:
		return "EXPLAIN"
	}
	return "empty"
}

// arena holds the backing arrays for every AST slice a parse produces.
// Lists are carved out of these arrays as value sub-slices (capped, so
// later growth cannot clobber them); a pooled parser resets the lengths
// to zero and reuses the same arrays on its next parse. Lists that can
// be under construction at the same time use distinct arrays: outer
// WHERE/ON conjuncts accumulate in conds while any subquery's conjuncts
// — which always complete before the outer list resumes — carve from
// subConds.
type arena struct {
	toks     []token // batch-tokenized statement, EOF-terminated
	conds    []Cond
	subConds []Cond
	items    []SelectItem
	from     []TableRef
	group    []ColName
	having   []HavingCond
	order    []OrderItem
	assigns  []Assign
	operands []Operand
	rows     [][]Operand
	strs     []string
}

func (a *arena) reset() {
	a.conds = a.conds[:0]
	a.subConds = a.subConds[:0]
	a.items = a.items[:0]
	a.from = a.from[:0]
	a.group = a.group[:0]
	a.having = a.having[:0]
	a.order = a.order[:0]
	a.assigns = a.assigns[:0]
	a.operands = a.operands[:0]
	a.rows = a.rows[:0]
	a.strs = a.strs[:0]
}

// parser walks the batch-tokenized statement by index, with arbitrary
// lookahead over the arena-backed token slice (the grammar needs two
// tokens: cur plus peek). The stream always ends in an EOF sentinel; on
// a lex error the stream is truncated at the offending byte and the
// error parks in lexErr, which takes precedence over any parse error at
// the statement boundary — the statement is fully lexed before parsing
// begins, so lexer errors surface first.
type parser struct {
	src    string // original query text, for line/column error positions
	lexErr error
	toks   []token // EOF-terminated, owned by the arena
	ti     int
	params int
	args   []any // the placeholders' arguments, in order; nil leaves them unbound
	a      arena
}

func (p *parser) reset(input string, args []any) {
	p.src = input
	p.a.reset()
	p.toks, p.lexErr = tokenize(input, p.a.toks[:0])
	p.a.toks = p.toks
	p.ti = 0
	p.params = 0
	p.args = args
}

func (p *parser) cur() token {
	return p.toks[p.ti]
}

func (p *parser) peek() token {
	if p.ti+1 < len(p.toks) {
		return p.toks[p.ti+1]
	}
	return p.toks[len(p.toks)-1] // the EOF sentinel
}

func (p *parser) next() token {
	t := p.toks[p.ti]
	if t.kind != tkEOF {
		p.ti++
	}
	return t
}

func (p *parser) at(kind tokKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) peekAt(kind tokKind, text string) bool {
	t := p.peek()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokKind, text string) bool {
	if p.at(kind, text) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(kind tokKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	want := `"` + text + `"`
	if text == "" {
		// Expectations on a bare kind (identifiers, in this dialect) have
		// no literal spelling to quote.
		want = "identifier"
	}
	return token{}, p.errf("expected %s, found %q", want, p.cur().text)
}

func (p *parser) errf(format string, args ...any) error {
	return posErrf(p.src, int(p.cur().pos), format, args...)
}

func (p *parser) parseInput() (*Statement, error) {
	stmt, err := p.parseTop()
	if err == nil && !p.at(tkEOF, "") {
		err = p.errf("trailing input starting at %q", p.cur().text)
	}
	// A lexer error always outranks a parse error: the old lexer ran to
	// completion before parsing began, so its errors surfaced first.
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	if err != nil {
		return nil, err
	}
	stmt.Params = p.params
	return stmt, nil
}

func (p *parser) parseTop() (*Statement, error) {
	if p.accept(tkKeyword, "EXPLAIN") {
		analyze := p.accept(tkKeyword, "ANALYZE")
		target := int(p.cur().pos)
		inner, err := p.parseOne()
		if err != nil {
			return nil, err
		}
		return &Statement{Explain: inner, Analyze: analyze, target: target}, nil
	}
	return p.parseOne()
}

func (p *parser) parseOne() (*Statement, error) {
	stmt := &Statement{}
	var err error
	switch {
	case p.at(tkKeyword, "SELECT"):
		stmt.Select, err = p.parseQuery(false)
	case p.at(tkKeyword, "INSERT"):
		stmt.Insert, err = p.parseInsert()
	case p.at(tkKeyword, "UPDATE"):
		stmt.Update, err = p.parseUpdate()
	case p.at(tkKeyword, "DELETE"):
		stmt.Delete, err = p.parseDelete()
	default:
		return nil, p.errf("expected SELECT, INSERT, UPDATE or DELETE, found %q", p.cur().text)
	}
	if err != nil {
		return nil, err
	}
	return stmt, nil
}

// parseQuery parses SELECT ... FROM ... [WHERE ...] [GROUP BY ...]
// [HAVING ...] [ORDER BY ...] [LIMIT n]. In subquery position (sub=true)
// the trailing clauses are rejected and the select list must be exactly
// COUNT(*).
func (p *parser) parseQuery(sub bool) (*Query, error) {
	if _, err := p.expect(tkKeyword, "SELECT"); err != nil {
		return nil, err
	}
	q := &Query{Limit: -1}
	if p.accept(tkKeyword, "DISTINCT") {
		q.Distinct = true
	}
	itemStart := len(p.a.items)
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		p.a.items = append(p.a.items, item)
		if !p.accept(tkSymbol, ",") {
			break
		}
	}
	q.Items = p.a.items[itemStart:len(p.a.items):len(p.a.items)]
	if sub {
		if len(q.Items) != 1 || q.Items[0].Agg != "COUNT" || !q.Items[0].Star {
			return nil, p.errf("subqueries must be SELECT COUNT(*)")
		}
	}
	if _, err := p.expect(tkKeyword, "FROM"); err != nil {
		return nil, err
	}
	// Outer WHERE conjuncts and JOIN ... ON conjuncts share one carve
	// region: ON conjuncts are sugar for WHERE conjuncts (the planner's
	// classifier routes both to join keys or pushed filters), so they
	// accumulate first and the WHERE clause extends the same list.
	// Subquery conjunct lists carve from their own array (subConds), so
	// a subquery parsed mid-clause never splits this region.
	condBuf := &p.a.conds
	if sub {
		condBuf = &p.a.subConds
	}
	condStart := len(*condBuf)
	fromStart := len(p.a.from)
	tr, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	p.a.from = append(p.a.from, tr)
	for {
		if p.accept(tkSymbol, ",") {
			tr, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			p.a.from = append(p.a.from, tr)
			continue
		}
		if p.at(tkKeyword, "JOIN") || p.at(tkKeyword, "INNER") {
			if sub {
				return nil, p.errf("JOIN is not supported in subqueries")
			}
			if p.accept(tkKeyword, "INNER") {
				if _, err := p.expect(tkKeyword, "JOIN"); err != nil {
					return nil, err
				}
			} else {
				p.next()
			}
			tr, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			p.a.from = append(p.a.from, tr)
			if _, err := p.expect(tkKeyword, "ON"); err != nil {
				return nil, err
			}
			for {
				c, err := p.parseCond(sub)
				if err != nil {
					return nil, err
				}
				*condBuf = append(*condBuf, c)
				if !p.accept(tkKeyword, "AND") {
					break
				}
			}
			continue
		}
		break
	}
	q.From = p.a.from[fromStart:len(p.a.from):len(p.a.from)]
	if sub && len(q.From) != 1 {
		return nil, p.errf("subqueries must reference exactly one table")
	}
	if p.accept(tkKeyword, "WHERE") {
		for {
			c, err := p.parseCond(sub)
			if err != nil {
				return nil, err
			}
			*condBuf = append(*condBuf, c)
			if !p.accept(tkKeyword, "AND") {
				break
			}
		}
	}
	if len(*condBuf) > condStart {
		q.Where = (*condBuf)[condStart:len(*condBuf):len(*condBuf)]
	}
	if !sub && p.accept(tkKeyword, "GROUP") {
		if _, err := p.expect(tkKeyword, "BY"); err != nil {
			return nil, err
		}
		start := len(p.a.group)
		for {
			col, err := p.parseColName()
			if err != nil {
				return nil, err
			}
			p.a.group = append(p.a.group, col)
			if !p.accept(tkSymbol, ",") {
				break
			}
		}
		q.GroupBy = p.a.group[start:len(p.a.group):len(p.a.group)]
	}
	if !sub && p.accept(tkKeyword, "HAVING") {
		start := len(p.a.having)
		for {
			hc, err := p.parseHavingCond()
			if err != nil {
				return nil, err
			}
			p.a.having = append(p.a.having, hc)
			if !p.accept(tkKeyword, "AND") {
				break
			}
		}
		q.Having = p.a.having[start:len(p.a.having):len(p.a.having)]
	}
	if !sub && p.accept(tkKeyword, "ORDER") {
		if _, err := p.expect(tkKeyword, "BY"); err != nil {
			return nil, err
		}
		start := len(p.a.order)
		for {
			col, err := p.parseColName()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Col: col}
			if p.accept(tkKeyword, "DESC") {
				item.Desc = true
			} else {
				p.accept(tkKeyword, "ASC")
			}
			p.a.order = append(p.a.order, item)
			if !p.accept(tkSymbol, ",") {
				break
			}
		}
		q.OrderBy = p.a.order[start:len(p.a.order):len(p.a.order)]
	}
	if !sub && p.accept(tkKeyword, "LIMIT") {
		t := p.cur()
		if t.kind != tkNumber {
			return nil, p.errf("expected LIMIT count, found %q", t.text)
		}
		p.next()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("LIMIT count %q is not an integer", t.text)
		}
		if n < 1 {
			return nil, p.errf("LIMIT count must be at least 1, got %d", n)
		}
		q.Limit = n
	}
	return q, nil
}

// parseHavingCond parses one HAVING conjunct. The left side may be an
// aggregate call (COUNT(*), SUM(col), ...) or a plain column of the
// grouped output.
func (p *parser) parseHavingCond() (HavingCond, error) {
	var left SelectItem
	t := p.cur()
	if t.kind == tkKeyword {
		switch t.text {
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			p.next()
			if _, err := p.expect(tkSymbol, "("); err != nil {
				return HavingCond{}, err
			}
			left = SelectItem{Agg: t.text}
			if t.text == "COUNT" && p.accept(tkSymbol, "*") {
				left.Star = true
			} else {
				col, err := p.parseColName()
				if err != nil {
					return HavingCond{}, err
				}
				left.Arg = col
			}
			if _, err := p.expect(tkSymbol, ")"); err != nil {
				return HavingCond{}, err
			}
		}
	}
	if left.Agg == "" {
		col, err := p.parseColName()
		if err != nil {
			return HavingCond{}, err
		}
		left = SelectItem{Col: col}
	}
	op := p.cur()
	if op.kind != tkSymbol || !cmpOps[op.text] {
		return HavingCond{}, p.errf("expected comparison operator, found %q", op.text)
	}
	p.next()
	opText := op.text
	if opText == "<>" {
		opText = "!="
	}
	rhs, err := p.parseOperand()
	if err != nil {
		return HavingCond{}, err
	}
	return HavingCond{Left: left, Op: opText, Right: rhs}, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	t := p.cur()
	if t.kind == tkKeyword {
		switch t.text {
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			p.next()
			if _, err := p.expect(tkSymbol, "("); err != nil {
				return SelectItem{}, err
			}
			item := SelectItem{Agg: t.text}
			if t.text == "COUNT" && p.accept(tkSymbol, "*") {
				item.Star = true
			} else {
				col, err := p.parseColName()
				if err != nil {
					return SelectItem{}, err
				}
				item.Arg = col
			}
			if _, err := p.expect(tkSymbol, ")"); err != nil {
				return SelectItem{}, err
			}
			if p.accept(tkKeyword, "AS") {
				name, err := p.expect(tkIdent, "")
				if err != nil {
					return SelectItem{}, err
				}
				item.As = name.text
			}
			return item, nil
		}
	}
	col, err := p.parseColName()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Col: col}
	if p.accept(tkKeyword, "AS") {
		name, err := p.expect(tkIdent, "")
		if err != nil {
			return SelectItem{}, err
		}
		item.As = name.text
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	name, err := p.expect(tkIdent, "")
	if err != nil {
		return TableRef{}, err
	}
	tr := TableRef{Name: name.text, Alias: name.text}
	if p.at(tkIdent, "") {
		tr.Alias = p.next().text
	}
	return tr, nil
}

func (p *parser) parseColName() (ColName, error) {
	first, err := p.expect(tkIdent, "")
	if err != nil {
		return ColName{}, err
	}
	if p.accept(tkSymbol, ".") {
		second, err := p.expect(tkIdent, "")
		if err != nil {
			return ColName{}, err
		}
		return ColName{Qual: first.text, Name: second.text}, nil
	}
	return ColName{Name: first.text}, nil
}

var cmpOps = map[string]bool{"=": true, "!=": true, "<>": true, "<": true, "<=": true, ">": true, ">=": true}

func (p *parser) parseCond(sub bool) (Cond, error) {
	// Subquery equality: ( SELECT ... ) = ( SELECT ... ).
	if !sub && p.at(tkSymbol, "(") {
		p.next()
		a, err := p.parseSubQuery()
		if err != nil {
			return Cond{}, err
		}
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return Cond{}, err
		}
		if _, err := p.expect(tkSymbol, "="); err != nil {
			return Cond{}, err
		}
		if _, err := p.expect(tkSymbol, "("); err != nil {
			return Cond{}, err
		}
		b, err := p.parseSubQuery()
		if err != nil {
			return Cond{}, err
		}
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return Cond{}, err
		}
		return Cond{SubEq: &SubEq{A: a, B: b}}, nil
	}
	if !sub && p.at(tkKeyword, "EXISTS") {
		return p.parseExists()
	}
	if p.at(tkKeyword, "NOT") && p.peekAt(tkKeyword, "EXISTS") {
		return Cond{}, p.errf("NOT EXISTS is not supported (rewrite it as a positive EXISTS on the complementary predicate)")
	}

	left, err := p.parseColName()
	if err != nil {
		return Cond{}, err
	}
	if p.at(tkKeyword, "IN") || (p.at(tkKeyword, "NOT") && p.peekAt(tkKeyword, "IN")) {
		not := p.accept(tkKeyword, "NOT")
		p.next() // IN
		return p.parseInTail(left, not, sub)
	}
	op := p.cur()
	if op.kind != tkSymbol || !cmpOps[op.text] {
		return Cond{}, p.errf("expected comparison operator, found %q", op.text)
	}
	p.next()
	if op.text == "<>" {
		op.text = "!="
	}
	rhs, err := p.parseOperand()
	if err != nil {
		return Cond{}, err
	}
	return Cond{Left: left, Op: op.text, Right: rhs}, nil
}

// parseInTail parses what follows "col IN" / "col NOT IN": a
// parenthesized literal list, or (in outer WHERE position only) a
// single-column subquery.
func (p *parser) parseInTail(left ColName, not, sub bool) (Cond, error) {
	if _, err := p.expect(tkSymbol, "("); err != nil {
		return Cond{}, err
	}
	if p.at(tkKeyword, "SELECT") {
		if sub {
			return Cond{}, p.errf("IN subqueries are not supported in this context")
		}
		if not {
			return Cond{}, p.errf("NOT IN with a subquery is not supported (only literal lists can be negated)")
		}
		isub, err := p.parseInSubquery()
		if err != nil {
			return Cond{}, err
		}
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return Cond{}, err
		}
		return Cond{Left: left, In: &InPred{Sub: isub}}, nil
	}
	start := len(p.a.operands)
	for {
		v, err := p.parseLiteral()
		if err != nil {
			return Cond{}, err
		}
		p.a.operands = append(p.a.operands, v)
		if !p.accept(tkSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tkSymbol, ")"); err != nil {
		return Cond{}, err
	}
	vals := p.a.operands[start:len(p.a.operands):len(p.a.operands)]
	return Cond{Left: left, In: &InPred{Not: not, Values: vals}}, nil
}

// parseInSubquery parses the body of col IN (SELECT c FROM t [alias]
// [WHERE ...]); the opening parenthesis and SELECT keyword are still
// pending on entry (SELECT detected by lookahead).
func (p *parser) parseInSubquery() (*InSub, error) {
	if _, err := p.expect(tkKeyword, "SELECT"); err != nil {
		return nil, err
	}
	col, err := p.parseColName()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tkKeyword, "FROM"); err != nil {
		return nil, err
	}
	tr, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	conds, err := p.parseSubWhere()
	if err != nil {
		return nil, err
	}
	return &InSub{Col: col, Table: tr, Conds: conds}, nil
}

// parseExists parses EXISTS ( SELECT * FROM t [alias] [WHERE ...] ).
// Exactly one WHERE conjunct must correlate with the outer query — the
// planner checks that when it lowers the predicate to a group-aggregate
// semi-join.
func (p *parser) parseExists() (Cond, error) {
	p.next() // EXISTS
	if _, err := p.expect(tkSymbol, "("); err != nil {
		return Cond{}, err
	}
	if _, err := p.expect(tkKeyword, "SELECT"); err != nil {
		return Cond{}, err
	}
	if _, err := p.expect(tkSymbol, "*"); err != nil {
		return Cond{}, err
	}
	if _, err := p.expect(tkKeyword, "FROM"); err != nil {
		return Cond{}, err
	}
	tr, err := p.parseTableRef()
	if err != nil {
		return Cond{}, err
	}
	conds, err := p.parseSubWhere()
	if err != nil {
		return Cond{}, err
	}
	if _, err := p.expect(tkSymbol, ")"); err != nil {
		return Cond{}, err
	}
	return Cond{Exists: &SubQuery{Table: tr, Conds: conds}}, nil
}

// parseSubWhere parses the optional WHERE conjunction of a subquery
// body into the subquery cond arena.
func (p *parser) parseSubWhere() ([]Cond, error) {
	if !p.accept(tkKeyword, "WHERE") {
		return nil, nil
	}
	start := len(p.a.subConds)
	for {
		c, err := p.parseCond(true)
		if err != nil {
			return nil, err
		}
		p.a.subConds = append(p.a.subConds, c)
		if !p.accept(tkKeyword, "AND") {
			break
		}
	}
	return p.a.subConds[start:len(p.a.subConds):len(p.a.subConds)], nil
}

func (p *parser) parseOperand() (Operand, error) {
	t := p.cur()
	switch t.kind {
	case tkString:
		p.next()
		return Operand{IsStr: true, Str: t.text}, nil
	case tkNumber:
		p.next()
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return Operand{}, p.errf("bad number %q", t.text)
			}
			return Operand{Float: f}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return Operand{}, p.errf("bad integer %q", t.text)
		}
		return Operand{IsInt: true, Int: n}, nil
	case tkIdent:
		col, err := p.parseColName()
		if err != nil {
			return Operand{}, err
		}
		return Operand{IsCol: true, Col: col}, nil
	case tkSymbol:
		if t.text == "?" {
			p.next()
			idx := p.params
			p.params++
			if idx < len(p.args) {
				return literalOperand(p.args[idx], idx)
			}
			return Operand{IsParam: true, Param: idx}, nil
		}
	}
	return Operand{}, p.errf("expected value or column, found %q", t.text)
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
		return Operand{IsInt: true, Int: int64(v)}, nil
	case int32:
		return Operand{IsInt: true, Int: int64(v)}, nil
	case int64:
		return Operand{IsInt: true, Int: v}, nil
	case float32:
		return Operand{Float: float64(v)}, nil
	case float64:
		return Operand{Float: v}, nil
	}
	return Operand{}, fmt.Errorf("sqlparse: unsupported argument type %T for placeholder ?%d", arg, idx+1)
}

// parseInsert parses INSERT INTO t [(col, ...)] VALUES (lit, ...) [, ...].
func (p *parser) parseInsert() (*InsertStmt, error) {
	if _, err := p.expect(tkKeyword, "INSERT"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tkKeyword, "INTO"); err != nil {
		return nil, err
	}
	name, err := p.expect(tkIdent, "")
	if err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: name.text}
	if p.accept(tkSymbol, "(") {
		start := len(p.a.strs)
		for {
			col, err := p.expect(tkIdent, "")
			if err != nil {
				return nil, err
			}
			p.a.strs = append(p.a.strs, col.text)
			if !p.accept(tkSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return nil, err
		}
		st.Columns = p.a.strs[start:len(p.a.strs):len(p.a.strs)]
	}
	if _, err := p.expect(tkKeyword, "VALUES"); err != nil {
		return nil, err
	}
	rowStart := len(p.a.rows)
	for {
		if _, err := p.expect(tkSymbol, "("); err != nil {
			return nil, err
		}
		start := len(p.a.operands)
		for {
			v, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			p.a.operands = append(p.a.operands, v)
			if !p.accept(tkSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return nil, err
		}
		row := p.a.operands[start:len(p.a.operands):len(p.a.operands)]
		if len(st.Columns) > 0 && len(row) != len(st.Columns) {
			return nil, p.errf("VALUES row has %d values, column list has %d", len(row), len(st.Columns))
		}
		p.a.rows = append(p.a.rows, row)
		if !p.accept(tkSymbol, ",") {
			break
		}
	}
	st.Rows = p.a.rows[rowStart:len(p.a.rows):len(p.a.rows)]
	return st, nil
}

// parseUpdate parses UPDATE t [alias] SET col = lit [, ...] [WHERE ...].
func (p *parser) parseUpdate() (*UpdateStmt, error) {
	if _, err := p.expect(tkKeyword, "UPDATE"); err != nil {
		return nil, err
	}
	tr, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	st := &UpdateStmt{Table: tr}
	if _, err := p.expect(tkKeyword, "SET"); err != nil {
		return nil, err
	}
	start := len(p.a.assigns)
	for {
		col, err := p.expect(tkIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkSymbol, "="); err != nil {
			return nil, err
		}
		val, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		p.a.assigns = append(p.a.assigns, Assign{Col: col.text, Val: val})
		if !p.accept(tkSymbol, ",") {
			break
		}
	}
	st.Set = p.a.assigns[start:len(p.a.assigns):len(p.a.assigns)]
	st.Where, err = p.parseOptWhere()
	return st, err
}

// parseDelete parses DELETE FROM t [alias] [WHERE ...].
func (p *parser) parseDelete() (*DeleteStmt, error) {
	if _, err := p.expect(tkKeyword, "DELETE"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tkKeyword, "FROM"); err != nil {
		return nil, err
	}
	tr, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Table: tr}
	st.Where, err = p.parseOptWhere()
	return st, err
}

// parseOptWhere parses the optional WHERE clause of a DML statement: a
// conjunction of simple comparisons and IN lists (no subqueries on the
// write path).
func (p *parser) parseOptWhere() ([]Cond, error) {
	if !p.accept(tkKeyword, "WHERE") {
		return nil, nil
	}
	start := len(p.a.conds)
	for {
		c, err := p.parseCond(true)
		if err != nil {
			return nil, err
		}
		p.a.conds = append(p.a.conds, c)
		if !p.accept(tkKeyword, "AND") {
			break
		}
	}
	return p.a.conds[start:len(p.a.conds):len(p.a.conds)], nil
}

// parseLiteral parses a string or number literal, or a ? placeholder
// (the only values the write path and IN lists accept — no expressions,
// no column references).
func (p *parser) parseLiteral() (Operand, error) {
	t := p.cur()
	switch {
	case t.kind == tkString || t.kind == tkNumber:
		return p.parseOperand()
	case t.kind == tkSymbol && t.text == "?":
		return p.parseOperand()
	}
	return Operand{}, p.errf("expected literal value, found %q", t.text)
}

func (p *parser) parseSubQuery() (SubQuery, error) {
	q, err := p.parseQuery(true)
	if err != nil {
		return SubQuery{}, err
	}
	for _, c := range q.Where {
		if c.SubEq != nil {
			return SubQuery{}, p.errf("nested subqueries are not supported")
		}
	}
	return SubQuery{Table: q.From[0], Conds: q.Where}, nil
}
