package factordb

import (
	"fmt"
	"time"

	"factordb/internal/relstore"
	"factordb/internal/serve"
)

// Rows is the streaming result of DB.Query: answer tuples sorted by
// descending marginal probability — or by the query's ORDER BY clause,
// with any LIMIT already applied — each carrying the tuple values, the
// probability estimate, and its confidence interval. The iteration
// protocol mirrors database/sql:
//
//	rows, err := db.Query(ctx, factordb.Query1)
//	...
//	defer rows.Close()
//	for rows.Next() {
//	    var s string
//	    if err := rows.Scan(&s); err != nil { ... }
//	    fmt.Println(s, rows.Prob())
//	}
//	if err := rows.Err(); err != nil { ... }
//
// Rows is not safe for concurrent use.
type Rows struct {
	res    *serve.Result // the engine's frozen answer, read in place
	i      int           // current row; -1 before the first Next
	closed bool
	err    error
}

// Columns returns the output column names, excluding the probability and
// interval (which are per-row metadata read through Prob and CI — the
// database/sql driver is what surfaces them as trailing columns).
func (r *Rows) Columns() []string { return r.res.Columns() }

// Len returns the number of answer tuples.
func (r *Rows) Len() int { return r.res.Len() }

// Next advances to the next answer tuple, returning false when the
// result set is exhausted or the rows are closed.
func (r *Rows) Next() bool {
	if r.closed || r.i+1 >= r.res.Len() {
		return false
	}
	r.i++
	return true
}

// current checks that a row is positioned for reading.
func (r *Rows) current() error {
	switch {
	case r.closed:
		return fmt.Errorf("factordb: rows are closed")
	case r.i < 0:
		return fmt.Errorf("factordb: Scan called before Next")
	case r.i >= r.res.Len():
		return fmt.Errorf("factordb: Scan called after the last row")
	}
	return nil
}

// Scan copies the current tuple's column values into dest, which must
// hold one pointer per column: *string, *int64, *int, *float64, *bool,
// or *any. Numeric columns scan into *float64 with the usual widening;
// any column scans into *string via its text rendering.
func (r *Rows) Scan(dest ...any) error {
	if err := r.current(); err != nil {
		return r.fail(err)
	}
	if w := r.res.Width(r.i); len(dest) != w {
		return r.fail(fmt.Errorf("factordb: Scan got %d destinations for %d columns", len(dest), w))
	}
	for j := range dest {
		if err := scanValue(dest[j], r.res.Value(r.i, j), j); err != nil {
			return r.fail(err)
		}
	}
	return nil
}

// fail records the first Scan failure so it also surfaces through Err,
// protecting callers who only check errors after the iteration loop.
func (r *Rows) fail(err error) error {
	if r.err == nil {
		r.err = err
	}
	return err
}

func scanValue(dest any, v relstore.Value, i int) error {
	switch d := dest.(type) {
	case *string:
		*d = v.String()
	case *int64:
		if v.Kind() != relstore.TInt {
			return fmt.Errorf("factordb: column %d is %v, not scannable into *int64", i, v.Kind())
		}
		*d = v.AsInt()
	case *int:
		if v.Kind() != relstore.TInt {
			return fmt.Errorf("factordb: column %d is %v, not scannable into *int", i, v.Kind())
		}
		*d = int(v.AsInt())
	case *float64:
		if v.Kind() != relstore.TInt && v.Kind() != relstore.TFloat {
			return fmt.Errorf("factordb: column %d is %v, not scannable into *float64", i, v.Kind())
		}
		*d = v.AsFloat()
	case *bool:
		if v.Kind() != relstore.TBool {
			return fmt.Errorf("factordb: column %d is %v, not scannable into *bool", i, v.Kind())
		}
		*d = v.AsBool()
	case *any:
		*d = goValue(v)
	default:
		return fmt.Errorf("factordb: unsupported Scan destination type %T for column %d", dest, i)
	}
	return nil
}

// goValue converts a stored value to its natural Go representation.
func goValue(v relstore.Value) any {
	switch v.Kind() {
	case relstore.TInt:
		return v.AsInt()
	case relstore.TFloat:
		return v.AsFloat()
	case relstore.TBool:
		return v.AsBool()
	default:
		return v.AsString()
	}
}

// Row returns the current tuple's values in their natural Go types
// (int64, float64, bool, string) — the allocation-light path the
// database/sql driver iterates with.
func (r *Rows) Row() ([]any, error) {
	if err := r.current(); err != nil {
		return nil, err
	}
	out := make([]any, r.res.Width(r.i))
	for j := range out {
		out[j] = goValue(r.res.Value(r.i, j))
	}
	return out, nil
}

// Prob returns the current tuple's estimated marginal probability of
// membership in the query answer (Equation 5 of the paper).
func (r *Rows) Prob() float64 {
	if r.current() != nil {
		return 0
	}
	return r.res.Prob(r.i)
}

// CI returns the Wilson confidence interval for the current tuple's
// marginal at the query's confidence level.
func (r *Rows) CI() (lo, hi float64) {
	if r.current() != nil {
		return 0, 0
	}
	return r.res.CI(r.i)
}

// Err returns the first error recorded during iteration. The answer set
// is fully materialized when Query returns, so Err is nil unless a Scan
// failure (type mismatch, arity mismatch, protocol misuse) occurred.
func (r *Rows) Err() error { return r.err }

// Close releases the rows. Further Next calls return false. Close is
// idempotent and always returns nil; it exists so callers can treat Rows
// like database/sql rows.
func (r *Rows) Close() error {
	r.closed = true
	return nil
}

// Samples returns how many possible-world samples the estimate is built
// from (summed across chains in served mode). A certain answer — one to
// a query that reads no hidden column, exact at P = 1 — samples nothing
// and reports its sample budget: an exact answer is worth any budget.
func (r *Rows) Samples() int64 { return r.res.Samples }

// Chains returns how many parallel chains contributed samples.
func (r *Rows) Chains() int { return r.res.Chains }

// Confidence returns the two-sided interval mass CI was computed at.
func (r *Rows) Confidence() float64 { return r.res.Confidence }

// Partial reports whether the budget was cut short (context expiry or
// close) and the estimate is built from fewer samples than requested.
// Only queries opted into AllowPartial can observe true.
func (r *Rows) Partial() bool { return r.res.Partial }

// EarlyStopped reports that a served ranked query (ORDER BY P DESC
// LIMIT k) finished before its sample budget because, at one of the
// looks of its sample schedule, the confidence intervals separated the
// top k from the rest — the answer's membership could no longer change,
// so the engine returned the remaining budget to the pool.
func (r *Rows) EarlyStopped() bool { return r.res.EarlyStop }

// Cached reports whether the answer was served from the result cache.
func (r *Rows) Cached() bool { return r.res.Cached }

// Elapsed returns the evaluation wall time. Cache hits report the
// original evaluation's time, not the lookup's — check Cached to tell
// them apart.
func (r *Rows) Elapsed() time.Duration { return r.res.Elapsed }

// Trace returns the span breakdown of this evaluation, or nil unless the
// query opted in with the Trace option (in served mode the engine's
// trace sampler may also attach one). The trace is immutable.
func (r *Rows) Trace() *QueryTrace { return r.res.Trace }
