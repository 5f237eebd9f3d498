package sqlparse

import (
	"strings"
	"sync"

	"factordb/internal/ra"
)

// Compiled is the plan cache's entry for one exact SQL byte string. It
// holds exactly one of four things:
//
//   - a planned SELECT: Plan, Spec, Cols and Fingerprint;
//   - a lowered INSERT, UPDATE or DELETE: Mutation;
//   - an EXPLAIN: Explain, which names the wrapped statement by its text;
//   - a statement with ? placeholders (Params > 0): its syntax tree,
//     freshly allocated and kept so that Bind can plan a bound copy.
//
// Entries are immutable once published and are shared freely across
// goroutines — plans are read-only after canonicalization, and Bind
// copies the kept tree rather than mutating it.
type Compiled struct {
	Plan        ra.Plan
	Spec        ra.ResultSpec
	Cols        []string
	Fingerprint string // canonical plan fingerprint (qfp1:...)
	Mutation    ra.Mutation
	Explain     *Explain
	// Params counts the statement's ? placeholders.
	Params int

	stmt *Statement // the kept tree of a statement with placeholders
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
// re-runs canonicalization, so the plan fingerprints exactly as the
// statement with its literals spelled inline; with no arguments at all
// the statement fails to plan on its first unbound placeholder.
func (c *Compiled) Bind(args []any) (*Compiled, error) {
	if c.stmt == nil {
		if len(args) != c.Params {
			return nil, arityErr(c.Params, len(args))
		}
		return c, nil
	}
	bound := c.stmt
	if len(args) > 0 {
		var err error
		if bound, err = BindArgs(c.stmt, args); err != nil {
			return nil, err
		}
	}
	return build(bound)
}

// build plans a parsed SELECT or lowers a parsed mutation.
func build(stmt *Statement) (*Compiled, error) {
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
	return &Compiled{
		Plan:        plan,
		Spec:        spec,
		Cols:        ra.OutputColumns(plan),
		Fingerprint: ra.CanonicalFingerprint(plan),
	}, nil
}

// compile parses sql on a pooled parser and builds its entry. A
// statement with placeholders is parsed a second time onto a fresh tree,
// because the pooled one is recycled with the parser; that happens once
// per cache miss.
func compile(sql string, use Use) (*Compiled, error) {
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
		return &Compiled{Params: kept.Params, stmt: kept}, nil
	}
	return build(stmt)
}

// PlanCache memoizes compiled statements keyed on the raw SQL string,
// so a repeated spelling skips lexing, parsing and canonicalization
// entirely — and a statement with placeholders is parsed once while its
// entry stays. Keys are exact byte strings: "SELECT  *" and "select *"
// are distinct entries even though they canonicalize to the same plan.
//
// Entries are plan-only — they hold no data, no bound statistics and no
// results — so they never need invalidating when the database mutates.
// Data-epoch invalidation of *result* caches is a separate, unchanged
// mechanism downstream.
//
// Eviction is FIFO with a fixed capacity. A nil *PlanCache is valid and
// simply compiles every call (no caching).
type PlanCache struct {
	mu      sync.Mutex
	entries map[string]*Compiled
	order   []string // insertion order, for FIFO eviction
	cap     int
}

// DefaultPlanCacheSize is the entry capacity used when a PlanCache is
// constructed with a non-positive size.
const DefaultPlanCacheSize = 256

// NewPlanCache returns a cache holding up to capacity compiled
// statements (DefaultPlanCacheSize if capacity <= 0).
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = DefaultPlanCacheSize
	}
	return &PlanCache{entries: make(map[string]*Compiled, capacity), cap: capacity}
}

// Len reports the number of cached statements.
func (pc *PlanCache) Len() int {
	if pc == nil {
		return 0
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.entries)
}

func (pc *PlanCache) get(sql string) *Compiled {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.entries[sql]
}

func (pc *PlanCache) put(sql string, c *Compiled) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if _, ok := pc.entries[sql]; ok {
		pc.entries[sql] = c // refresh in place; keep original queue slot
		return
	}
	for len(pc.entries) >= pc.cap && len(pc.order) > 0 {
		victim := pc.order[0]
		pc.order = pc.order[1:]
		delete(pc.entries, victim)
	}
	pc.entries[sql] = c
	pc.order = append(pc.order, sql)
}

// Lookup returns the entry for sql, compiling and caching it on a miss;
// the second result reports a hit. An entry of a kind use does not admit
// counts as a miss, and only successful compiles are cached, so a
// statement issued through the wrong entry point fails every time
// without evicting anything.
func (pc *PlanCache) Lookup(sql string, use Use) (*Compiled, bool, error) {
	if pc != nil {
		if c := pc.get(sql); c != nil && c.admits(use) {
			return c, true, nil
		}
	}
	c, err := compile(sql, use)
	if err != nil {
		return nil, false, err
	}
	if pc != nil {
		pc.put(sql, c)
	}
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
