// Package sqldriver registers factordb with database/sql under the
// driver name "factordb", so the probabilistic database is reachable
// through the standard library's tooling:
//
//	import (
//	    "database/sql"
//	    _ "factordb/sqldriver"
//	)
//
//	db, err := sql.Open("factordb", "ner?tokens=20000&mode=materialized&samples=100")
//	rows, err := db.QueryContext(ctx, "SELECT STRING FROM TOKEN WHERE LABEL='B-PER'")
//
// The DSN is "<model>?<params>": model "ner" or "coref", with model
// parameters (ner: tokens, seed, train_steps, tokens_per_doc,
// temperature, linear; coref: entities, mentions, seed) and engine
// parameters (mode=naive|materialized|served, samples, steps, chains,
// burn, confidence, seed) mixed in one query string. Any other parameter
// fails sql.Open with an error naming it.
//
// Every result row carries the query's output columns followed by three
// trailing columns: P (the tuple's marginal probability), CI_LO and
// CI_HI (its confidence interval). Result sets are ordered by descending
// probability unless the query carries an ORDER BY clause; ORDER BY P
// DESC LIMIT k ranks and truncates server-side, so the driver streams
// exactly the top-k rows in rank order.
//
// The workload model is built — and for NER, trained — once per sql.DB
// on first use, not per connection: all pooled connections share one
// underlying factordb.DB, which is released when the sql.DB is closed.
// In served mode the engine identifies queries by the fingerprint of
// their bound plan rather than the SQL text, so spelling variants of
// one query issued across pooled connections share a result-cache entry
// and, while concurrently in flight, one materialized view per chain.
//
// DML goes through the standard Exec surface:
//
//	res, err := db.ExecContext(ctx, "UPDATE TOKEN SET STRING='Boston' WHERE TOK_ID=4711")
//	n, _ := res.RowsAffected()
//
// A write mutates every possible-world copy in place and the samplers
// keep walking (the paper's update model): subsequent queries reflect the
// mutation, cached pre-write answers are never served again, and no
// reopen is needed. LastInsertId is not supported (row identities are
// internal), nor are transactions.
//
// Statements support ? placeholder arguments, bound positionally as
// literal values (strings, integers, floats):
//
//	stmt, err := db.PrepareContext(ctx, "SELECT STRING FROM TOKEN WHERE LABEL = ?")
//	rows, err := stmt.QueryContext(ctx, "B-PER")
//
// A statement is compiled into the database's plan cache once, whichever
// way it arrives: a statement with placeholders keeps its parsed syntax
// tree there, and each execution binds the arguments into a copy and
// re-plans it, which — because plans are canonicalized before they are
// bound and fingerprinted — yields the same fingerprint, cache entries,
// and shared views as the query with its literals inlined. Ad-hoc
// QueryContext/ExecContext calls with args look the statement up the
// same way.
package sqldriver

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"fmt"
	"io"
	"maps"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"

	"factordb"
)

func init() {
	sql.Register("factordb", &Driver{})
}

// Driver is the database/sql driver. It implements DriverContext, so
// each sql.DB gets one Connector holding one shared factordb.DB.
type Driver struct{}

var (
	_ driver.Driver        = (*Driver)(nil)
	_ driver.DriverContext = (*Driver)(nil)
)

// Open implements driver.Driver for clients that bypass OpenConnector.
// The connection builds its own database and closes it on Close.
func (d *Driver) Open(dsn string) (driver.Conn, error) {
	model, opts, err := parseDSN(dsn)
	if err != nil {
		return nil, err
	}
	db, err := factordb.Open(model, opts...)
	if err != nil {
		return nil, err
	}
	return &conn{db: db, owned: true}, nil
}

// OpenConnector parses the DSN eagerly (so malformed DSNs fail at
// sql.Open time on first use) and defers the expensive model build to
// the first connection.
func (d *Driver) OpenConnector(dsn string) (driver.Connector, error) {
	model, opts, err := parseDSN(dsn)
	if err != nil {
		return nil, err
	}
	return &connector{drv: d, model: model, opts: opts}, nil
}

// connector owns the one factordb.DB shared by every pooled connection.
type connector struct {
	drv   *Driver
	model factordb.Model
	opts  []factordb.Option

	once sync.Once
	db   *factordb.DB
	err  error
}

var _ io.Closer = (*connector)(nil) // sql.DB.Close closes the connector

func (c *connector) Connect(context.Context) (driver.Conn, error) {
	c.once.Do(func() { c.db, c.err = factordb.Open(c.model, c.opts...) })
	if c.err != nil {
		return nil, c.err
	}
	return &conn{db: c.db}, nil
}

func (c *connector) Driver() driver.Driver { return c.drv }

// Close releases the shared database; database/sql calls it from
// sql.DB.Close.
func (c *connector) Close() error {
	var err error
	c.once.Do(func() {}) // settle the build state
	if c.db != nil {
		err = c.db.Close()
	}
	return err
}

// dsnKeys is every DSN parameter, listed under the model that reads it;
// the engine's parameters, read for every model, are listed under "".
var dsnKeys = map[string][]string{
	"ner":   {"tokens", "seed", "train_steps", "tokens_per_doc", "temperature", "linear"},
	"coref": {"entities", "mentions", "seed"},
	"":      {"mode", "samples", "steps", "chains", "burn", "confidence", "seed"},
}

// parseDSN splits "<model>?<params>" and maps the parameters onto a
// workload config and Open options. A parameter the model and the engine
// do not read is an error, so a misspelt key cannot silently fall back
// to its default.
func parseDSN(dsn string) (factordb.Model, []factordb.Option, error) {
	name := dsn
	rawQuery := ""
	if i := strings.IndexByte(dsn, '?'); i >= 0 {
		name, rawQuery = dsn[:i], dsn[i+1:]
	}
	params, err := url.ParseQuery(rawQuery)
	if err != nil {
		return nil, nil, fmt.Errorf("sqldriver: bad DSN %q: %v", dsn, err)
	}
	p := &dsnParams{values: params}

	var model factordb.Model
	switch name {
	case "ner":
		model = factordb.NER(factordb.NERConfig{
			Tokens:       p.intVal("tokens"),
			Seed:         p.int64Val("seed"),
			TrainSteps:   p.intVal("train_steps"),
			TokensPerDoc: p.intVal("tokens_per_doc"),
			Temperature:  p.floatVal("temperature"),
			LinearChain:  p.boolVal("linear"),
		})
	case "coref":
		model = factordb.Coref(factordb.CorefConfig{
			Entities:          p.intVal("entities"),
			MentionsPerEntity: p.intVal("mentions"),
			Seed:              p.int64Val("seed"),
		})
	default:
		return nil, nil, fmt.Errorf("sqldriver: unknown model %q in DSN (want ner or coref)", name)
	}
	for _, key := range slices.Sorted(maps.Keys(params)) {
		if !slices.Contains(dsnKeys[name], key) && !slices.Contains(dsnKeys[""], key) {
			return nil, nil, fmt.Errorf("sqldriver: unknown DSN parameter %q for model %s", key, name)
		}
	}

	var opts []factordb.Option
	if s := p.strVal("mode"); s != "" {
		mode, err := factordb.ParseMode(s)
		if err != nil {
			return nil, nil, err
		}
		opts = append(opts, factordb.WithMode(mode))
	}
	if n := p.intVal("samples"); n > 0 {
		opts = append(opts, factordb.WithSamples(n))
	}
	if n := p.intVal("steps"); n > 0 {
		opts = append(opts, factordb.WithSteps(n))
	}
	if n := p.intVal("chains"); n > 0 {
		opts = append(opts, factordb.WithChains(n))
	}
	if n := p.intVal("burn"); n > 0 {
		opts = append(opts, factordb.WithBurnIn(n))
	}
	if c := p.floatVal("confidence"); c != 0 {
		opts = append(opts, factordb.WithConfidence(c))
	}
	if s := p.strVal("seed"); s != "" {
		opts = append(opts, factordb.WithSeed(p.int64Val("seed")))
	}
	if p.err != nil {
		return nil, nil, p.err
	}
	return model, opts, nil
}

// dsnParams accumulates the first conversion error instead of forcing a
// check at every read.
type dsnParams struct {
	values url.Values
	err    error
}

func (p *dsnParams) strVal(key string) string { return p.values.Get(key) }

func (p *dsnParams) intVal(key string) int {
	s := p.values.Get(key)
	if s == "" {
		return 0
	}
	n, err := strconv.Atoi(s)
	if err != nil && p.err == nil {
		p.err = fmt.Errorf("sqldriver: DSN parameter %s=%q is not an integer", key, s)
	}
	return n
}

func (p *dsnParams) int64Val(key string) int64 {
	s := p.values.Get(key)
	if s == "" {
		return 0
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil && p.err == nil {
		p.err = fmt.Errorf("sqldriver: DSN parameter %s=%q is not an integer", key, s)
	}
	return n
}

func (p *dsnParams) floatVal(key string) float64 {
	s := p.values.Get(key)
	if s == "" {
		return 0
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil && p.err == nil {
		p.err = fmt.Errorf("sqldriver: DSN parameter %s=%q is not a number", key, s)
	}
	return f
}

func (p *dsnParams) boolVal(key string) bool {
	s := p.values.Get(key)
	if s == "" {
		return false
	}
	b, err := strconv.ParseBool(s)
	if err != nil && p.err == nil {
		p.err = fmt.Errorf("sqldriver: DSN parameter %s=%q is not a boolean", key, s)
	}
	return b
}

// conn is one pooled connection over the shared database. The underlying
// factordb.DB is concurrency-safe, so conn holds no state of its own, and
// Close releases the DB only when the conn owns it (Driver.Open); a
// connector's conns leave it to the connector.
type conn struct {
	db    *factordb.DB
	owned bool
}

var (
	_ driver.Conn           = (*conn)(nil)
	_ driver.QueryerContext = (*conn)(nil)
	_ driver.ExecerContext  = (*conn)(nil)
)

func (c *conn) Prepare(query string) (driver.Stmt, error) {
	ps, err := c.db.Prepare(query)
	if err != nil {
		return nil, err
	}
	return &stmt{conn: c, ps: ps}, nil
}

func (c *conn) Close() error {
	if c.owned {
		return c.db.Close()
	}
	return nil
}

func (c *conn) Begin() (driver.Tx, error) {
	return nil, fmt.Errorf("sqldriver: transactions are not supported")
}

func (c *conn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	if len(args) == 0 {
		fr, err := c.db.Query(ctx, query)
		if err != nil {
			return nil, err
		}
		return newRows(fr), nil
	}
	// Placeholder arguments route through a prepared statement: a
	// plan-cache lookup, then the engine binds the args into the cached
	// tree as literals and re-plans.
	vals, err := argValues(args)
	if err != nil {
		return nil, err
	}
	ps, err := c.db.Prepare(query)
	if err != nil {
		return nil, err
	}
	defer ps.Close()
	fr, err := ps.Query(ctx, vals...)
	if err != nil {
		return nil, err
	}
	return newRows(fr), nil
}

// ExecContext runs one DML statement (INSERT, UPDATE or DELETE) against
// the shared database. The returned result reports rows affected;
// LastInsertId is not supported.
func (c *conn) ExecContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Result, error) {
	if len(args) == 0 {
		res, err := c.db.Exec(ctx, query)
		if err != nil {
			return nil, err
		}
		return execResult{rows: res.RowsAffected}, nil
	}
	vals, err := argValues(args)
	if err != nil {
		return nil, err
	}
	ps, err := c.db.Prepare(query)
	if err != nil {
		return nil, err
	}
	defer ps.Close()
	res, err := ps.Exec(ctx, vals...)
	if err != nil {
		return nil, err
	}
	return execResult{rows: res.RowsAffected}, nil
}

// argValues unwraps positional driver arguments. Named arguments have no
// SQL-side syntax in this dialect.
func argValues(args []driver.NamedValue) ([]any, error) {
	out := make([]any, len(args))
	for i, a := range args {
		if a.Name != "" {
			return nil, fmt.Errorf("sqldriver: named argument %q is not supported (use ? placeholders)", a.Name)
		}
		out[i] = a.Value
	}
	return out, nil
}

// execResult adapts factordb.ExecResult to driver.Result.
type execResult struct {
	rows int64
}

func (execResult) LastInsertId() (int64, error) {
	return 0, fmt.Errorf("sqldriver: LastInsertId is not supported (row identities are internal)")
}

func (r execResult) RowsAffected() (int64, error) { return r.rows, nil }

// stmt is a prepared statement: the SQL was compiled into the plan cache
// at Prepare time, and each execution binds its ? arguments as literals
// into a copy of the cached syntax tree and re-plans.
type stmt struct {
	conn *conn
	ps   *factordb.Stmt
}

var (
	_ driver.Stmt             = (*stmt)(nil)
	_ driver.StmtQueryContext = (*stmt)(nil)
	_ driver.StmtExecContext  = (*stmt)(nil)
)

func (s *stmt) Close() error  { return s.ps.Close() }
func (s *stmt) NumInput() int { return s.ps.NumInput() }

func (s *stmt) Exec(args []driver.Value) (driver.Result, error) {
	return s.ExecContext(context.Background(), namedValues(args))
}

func (s *stmt) ExecContext(ctx context.Context, args []driver.NamedValue) (driver.Result, error) {
	vals, err := argValues(args)
	if err != nil {
		return nil, err
	}
	res, err := s.ps.Exec(ctx, vals...)
	if err != nil {
		return nil, err
	}
	return execResult{rows: res.RowsAffected}, nil
}

func (s *stmt) Query(args []driver.Value) (driver.Rows, error) {
	return s.QueryContext(context.Background(), namedValues(args))
}

func (s *stmt) QueryContext(ctx context.Context, args []driver.NamedValue) (driver.Rows, error) {
	vals, err := argValues(args)
	if err != nil {
		return nil, err
	}
	fr, err := s.ps.Query(ctx, vals...)
	if err != nil {
		return nil, err
	}
	return newRows(fr), nil
}

// namedValues adapts the legacy positional argument form.
func namedValues(args []driver.Value) []driver.NamedValue {
	out := make([]driver.NamedValue, len(args))
	for i, v := range args {
		out[i] = driver.NamedValue{Ordinal: i + 1, Value: v}
	}
	return out
}

// rows adapts factordb.Rows to driver.Rows, appending the probability
// and confidence-interval columns after the query's own output columns.
type rows struct {
	fr   *factordb.Rows
	cols []string
}

var _ driver.Rows = (*rows)(nil)

func newRows(fr *factordb.Rows) *rows {
	cols := append(append([]string{}, fr.Columns()...), "P", "CI_LO", "CI_HI")
	return &rows{fr: fr, cols: cols}
}

func (r *rows) Columns() []string { return r.cols }

func (r *rows) Close() error { return r.fr.Close() }

func (r *rows) Next(dest []driver.Value) error {
	if !r.fr.Next() {
		return io.EOF
	}
	vals, err := r.fr.Row()
	if err != nil {
		return err
	}
	if want := len(vals) + 3; len(dest) != want {
		return fmt.Errorf("sqldriver: destination holds %d values, row has %d", len(dest), want)
	}
	for i, v := range vals {
		dest[i] = v
	}
	lo, hi := r.fr.CI()
	dest[len(vals)] = r.fr.Prob()
	dest[len(vals)+1] = lo
	dest[len(vals)+2] = hi
	return nil
}
