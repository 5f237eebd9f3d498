package factordb

import (
	"context"
	"strings"
	"testing"
)

// TestPreparedStatementsUseThePlanCache pins the one statement path from
// the facade: Prepare compiles into the engine's plan cache — EXPLAIN
// included — and a prepared execution is an ordinary plan-cache lookup,
// traced as plan_cache hit or miss and counted in
// factordb_plan_cache_hits_total. A statement evicted from the FIFO cache
// is compiled again on its next execution, and EXPLAIN stays untraced and
// uncounted while its target compiles under the target's own text.
func TestPreparedStatementsUseThePlanCache(t *testing.T) {
	db := openCorefDB(t, WithMode(ModeServed), WithChains(1), WithTraceSampling(1), WithPlanCache(2))
	ctx := context.Background()
	hits := func() string {
		t.Helper()
		var sb strings.Builder
		db.Metrics().WriteText(&sb)
		for _, line := range strings.Split(sb.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "factordb_plan_cache_hits_total "); ok {
				return v
			}
		}
		t.Fatal("no factordb_plan_cache_hits_total series")
		return ""
	}
	lastCompile := func(kind string) string {
		t.Helper()
		tr := db.RecentTraces()[0]
		if tr.Kind != kind || tr.Spans[0].Name != "compile" {
			t.Fatalf("newest trace is %s with first span %q, want %s/compile", tr.Kind, tr.Spans[0].Name, kind)
		}
		return tr.Spans[0].Attrs["plan_cache"]
	}
	prepare := func(sql string, want int) *Stmt {
		t.Helper()
		s, err := db.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		if s.NumInput() != want {
			t.Fatalf("Prepare(%q).NumInput() = %d, want %d", sql, s.NumInput(), want)
		}
		return s
	}
	query := func(s *Stmt, args ...any) []string {
		t.Helper()
		rows, err := s.Query(ctx, args...)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		var out []string
		for rows.Next() {
			var v string
			if err := rows.Scan(&v); err != nil {
				t.Fatal(err)
			}
			out = append(out, v)
		}
		return out
	}

	const sel = `SELECT STRING FROM MENTION WHERE MENTION_ID = ?`
	q := prepare(sel, 1)
	query(q, 1)
	if got := lastCompile("query"); got != "hit" || hits() != "1" {
		t.Errorf("prepared query: plan_cache %q, %s hits; want hit, 1", got, hits())
	}

	x := prepare("EXPLAIN "+sel, 1)
	traces := len(db.RecentTraces())
	if plan := strings.Join(query(x, 1), "\n"); !strings.Contains(plan, "plan cache: hit") {
		t.Errorf("prepared EXPLAIN did not find its target in the cache:\n%s", plan)
	}
	if len(db.RecentTraces()) != traces || hits() != "1" {
		t.Errorf("EXPLAIN left %d new traces and %s plan-cache hits; want none and 1",
			len(db.RecentTraces())-traces, hits())
	}

	// A third statement evicts the first: its next execution compiles again.
	w := prepare(`UPDATE MENTION SET STRING = ? WHERE MENTION_ID = ?`, 2)
	query(q, 1)
	if got := lastCompile("query"); got != "miss" || hits() != "1" {
		t.Errorf("evicted prepared query: plan_cache %q, %s hits; want miss, 1", got, hits())
	}
	if _, err := w.Exec(ctx, "P", 1); err != nil {
		t.Fatal(err)
	}
	if got := lastCompile("exec"); got != "hit" || hits() != "2" {
		t.Errorf("prepared write: plan_cache %q, %s hits; want hit, 2", got, hits())
	}
	if _, err := q.Query(ctx); err == nil || !strings.Contains(err.Error(), "unbound") {
		t.Errorf("prepared query without its argument = %v, want the unbound-placeholder error", err)
	}
}
