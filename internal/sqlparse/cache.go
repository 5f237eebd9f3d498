package sqlparse

import (
	"math"
	"strconv"
	"strings"
	"sync"

	"factordb/internal/ra"
	"factordb/internal/relstore"
)

// Compiled is the plan cache's entry for one exact SQL byte string, or
// for a statement with placeholders bound to one argument list. It
// holds exactly one of four things:
//
//   - a planned SELECT: Plan, Spec, Cols, and Stmt and Fingerprint if bound;
//   - a lowered INSERT, UPDATE or DELETE: Mutation;
//   - an EXPLAIN: Explain, which names the wrapped statement by its text;
//   - a statement with ? placeholders (Params > 0): its syntax tree,
//     freshly allocated and kept so that Bind can plan a bound copy.
//
// Entries are immutable once published and are shared freely across
// goroutines — plans and bound statements are read-only, and Bind copies
// the kept tree rather than mutating it.
type Compiled struct {
	Plan        ra.Plan
	Spec        ra.ResultSpec
	Cols        []string
	Stmt        *ra.Bound // Plan bound once (ra.Prepare), to no world; nil without a schema
	Fingerprint string    // Stmt's, the statement's one identity; "" without a schema
	Mutation    ra.Mutation
	Explain     *Explain
	// Params counts the statement's ? placeholders.
	Params int

	stmt   *Statement   // the kept tree of a statement with placeholders
	sql    string       // its text
	schema *relstore.DB // what its plans bind against
	cache  *PlanCache   // where Bind keeps its plans
}

// Explain is an EXPLAIN [ANALYZE] entry. Target is the wrapped
// statement's text as the parser located it, so the target compiles and
// caches under its own text exactly as if it had been issued directly.
type Explain struct {
	Analyze bool
	Query   bool // the target is a SELECT rather than DML
	Target  string
}

// Use is what a caller will do with a statement. Asking for a kind of
// statement the use does not admit fails with the read/write API error.
type Use uint8

const (
	// UseQuery admits SELECT and EXPLAIN.
	UseQuery Use = iota
	// UseExec admits INSERT, UPDATE and DELETE.
	UseExec
	// UsePrepare admits any statement.
	UsePrepare
)

func (c *Compiled) admits(use Use) bool {
	query := c.Plan != nil || c.Explain != nil || c.stmt != nil && c.stmt.Select != nil
	switch use {
	case UseQuery:
		return query
	case UseExec:
		return !query
	}
	return true
}

// Bind plans a SELECT or DML entry's statement with args substituted for
// its ? placeholders. An entry without placeholders is already planned
// and is returned as is (args must then be empty). Otherwise Bind plans
// a copy of the kept tree with the arguments inlined as literals, which
// re-runs canonicalization, so it fingerprints exactly as the statement
// with its literals spelled inline; with no arguments at all the
// statement fails to plan on its first unbound placeholder.
//
// The result is kept in the plan cache, keyed on the statement's text
// and the literals the arguments bind as: an execution whose arguments
// were bound before plans nothing, just as a literal spelling issued
// again is a plan-cache hit.
func (c *Compiled) Bind(args []any) (*Compiled, error) {
	if c.stmt == nil {
		if len(args) != c.Params {
			return nil, arityErr(c.Params, len(args))
		}
		return c, nil
	}
	if len(args) == 0 {
		return build(c.stmt, c.schema)
	}
	var buf [256]byte
	key, err := c.bindKey(buf[:0], args)
	if err != nil {
		return nil, err
	}
	if out := c.cache.getBound(key); out != nil {
		return out, nil
	}
	stmt, err := BindArgs(c.stmt, args)
	if err != nil {
		return nil, err
	}
	out, err := build(stmt, c.schema)
	if err == nil && c.cache != nil {
		c.cache.put(&c.cache.binds, string(key), out)
	}
	return out, err
}

// bindKey appends the key Bind keeps c bound to args under: c's text and
// the literal each argument binds as, quoted or ';'-terminated, so two
// argument lists share a key exactly when they bind the same statement.
func (c *Compiled) bindKey(key []byte, args []any) ([]byte, error) {
	key = strconv.AppendQuote(key, c.sql)
	for i, arg := range args {
		op, err := literalOperand(arg, i)
		switch {
		case err != nil:
			return nil, err
		case op.IsStr:
			key = strconv.AppendQuote(key, op.Str)
		case op.IsInt:
			key = append(strconv.AppendInt(key, op.Int, 10), ';')
		default:
			key = append(strconv.AppendUint(append(key, 'f'), math.Float64bits(op.Float), 16), ';')
		}
	}
	return key, nil
}

// build plans a parsed SELECT, and binds it if schema is set, or lowers a
// parsed mutation.
func build(stmt *Statement, schema *relstore.DB) (*Compiled, error) {
	if stmt.Select == nil {
		mut, err := lower(stmt)
		if err != nil {
			return nil, err
		}
		return &Compiled{Mutation: mut}, nil
	}
	plan, spec, err := PlanQuery(stmt.Select)
	if err != nil {
		return nil, err
	}
	c := &Compiled{Plan: plan, Spec: spec, Cols: ra.OutputColumns(plan)}
	if schema != nil {
		if c.Stmt, err = ra.Prepare(schema, plan); err != nil {
			return nil, err
		}
		c.Fingerprint = c.Stmt.Fingerprint()
	}
	return c, nil
}

// compile parses sql on a pooled parser and builds its entry. A
// statement with placeholders is parsed a second time onto a fresh tree,
// because the pooled one is recycled with the parser; that happens once
// per cache miss.
func compile(sql string, use Use, pc *PlanCache, schema *relstore.DB) (*Compiled, error) {
	p := parserPool.Get().(*parser)
	defer parserPool.Put(p)
	p.reset(sql)
	stmt, err := p.parseInput()
	if err != nil {
		return nil, err
	}
	if err := misuse(sql, stmt, use); err != nil {
		return nil, err
	}
	switch {
	case stmt.Explain != nil:
		return &Compiled{Params: stmt.Params, Explain: &Explain{
			Analyze: stmt.Analyze,
			Query:   stmt.Explain.Select != nil,
			Target:  strings.TrimSpace(sql[stmt.target:]),
		}}, nil
	case stmt.Params > 0:
		kept, err := ParseStatement(sql)
		if err != nil {
			return nil, err
		}
		return &Compiled{Params: kept.Params, stmt: kept, sql: sql, schema: schema, cache: pc}, nil
	}
	return build(stmt, schema)
}

// PlanCache memoizes compiled statements keyed on the raw SQL string,
// so a repeated spelling skips lexing, parsing and canonicalization
// entirely — and a statement with placeholders is parsed once while its
// entry stays. Keys are exact byte strings: "SELECT  *" and "select *"
// are distinct entries even though they canonicalize to the same plan.
//
// A cache with a schema (NewSchemaPlanCache) binds each SELECT too, once.
// Beside its statements the cache keeps, up to the same capacity, the
// entries Compiled.Bind planned for argument lists, so binding never
// evicts a statement. Entries hold no data, no results and no world, so
// they never need invalidating when the database mutates; data-epoch
// invalidation of *result* caches is a separate mechanism downstream.
//
// Eviction is FIFO with a fixed capacity. A nil *PlanCache is valid and
// simply compiles every call (no caching).
type PlanCache struct {
	mu     sync.Mutex
	stmts  fifo // keyed on the raw SQL
	binds  fifo // keyed on Compiled.bindKey
	cap    int
	schema *relstore.DB
}

// fifo is one of a PlanCache's maps, with the insertion order of its
// keys for FIFO eviction.
type fifo struct {
	entries map[string]*Compiled
	order   []string
}

// DefaultPlanCacheSize is the entry capacity used when a PlanCache is
// constructed with a non-positive size.
const DefaultPlanCacheSize = 256

// NewPlanCache returns a cache holding up to capacity compiled
// statements (DefaultPlanCacheSize if capacity <= 0).
func NewPlanCache(capacity int) *PlanCache { return NewSchemaPlanCache(nil, capacity) }

// NewSchemaPlanCache is NewPlanCache binding its SELECT entries against
// schema's catalog, whose rows it never reads (see Compiled.Stmt).
func NewSchemaPlanCache(schema *relstore.DB, capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = DefaultPlanCacheSize
	}
	return &PlanCache{cap: capacity, schema: schema,
		stmts: fifo{entries: make(map[string]*Compiled, capacity)},
		binds: fifo{entries: make(map[string]*Compiled)}}
}

// Len reports the number of cached statements.
func (pc *PlanCache) Len() int {
	if pc == nil {
		return 0
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.stmts.entries)
}

func (pc *PlanCache) get(sql string) *Compiled {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.stmts.entries[sql]
}

// getBound returns the entry Bind kept under key, if any.
func (pc *PlanCache) getBound(key []byte) *Compiled {
	if pc == nil {
		return nil
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.binds.entries[string(key)]
}

func (pc *PlanCache) put(f *fifo, key string, c *Compiled) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if _, ok := f.entries[key]; ok {
		f.entries[key] = c // refresh in place; keep original queue slot
		return
	}
	for len(f.entries) >= pc.cap && len(f.order) > 0 {
		victim := f.order[0]
		f.order = f.order[1:]
		delete(f.entries, victim)
	}
	f.entries[key] = c
	f.order = append(f.order, key)
}

// Lookup returns the entry for sql, compiling and caching it on a miss;
// the second result reports a hit. An entry of a kind use does not admit
// counts as a miss, and only successful compiles are cached, so a
// statement issued through the wrong entry point fails every time
// without evicting anything.
func (pc *PlanCache) Lookup(sql string, use Use) (*Compiled, bool, error) {
	if pc == nil {
		c, err := compile(sql, use, nil, nil)
		return c, false, err
	}
	if c := pc.get(sql); c != nil && c.admits(use) {
		return c, true, nil
	}
	c, err := compile(sql, use, pc, pc.schema)
	if err != nil {
		return nil, false, err
	}
	pc.put(&pc.stmts, sql, c)
	return c, false, nil
}

// CompileQuery returns the planned form of a SELECT through the cache;
// the second result reports a hit. EXPLAIN and statements with unbound
// placeholders fail here: they are Lookup's to serve.
func (pc *PlanCache) CompileQuery(sql string) (*Compiled, bool, error) {
	c, hit, err := pc.Lookup(sql, UseQuery)
	if err != nil {
		return nil, false, err
	}
	if c.Explain != nil {
		return nil, false, posErrf(sql, 0, explainOnlyQuery)
	}
	if c, err = c.Bind(nil); err != nil {
		return nil, false, err
	}
	return c, hit, nil
}

// CompileMutation returns the lowered form of a DML statement through
// the cache; the second result reports a hit.
func (pc *PlanCache) CompileMutation(sql string) (ra.Mutation, bool, error) {
	c, hit, err := pc.Lookup(sql, UseExec)
	if err != nil {
		return nil, false, err
	}
	if c, err = c.Bind(nil); err != nil {
		return nil, false, err
	}
	return c.Mutation, hit, nil
}
