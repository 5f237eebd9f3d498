package sqlparse

import (
	"strings"
	"testing"

	"factordb/internal/ra"
	"factordb/internal/relstore"
)

// ---- lexer regressions ----

func TestStringEscaping(t *testing.T) {
	q, err := parseSelect(`SELECT STRING FROM TOKEN WHERE STRING='O''Brien'`)
	if err != nil {
		t.Fatalf("parseSelect: %v", err)
	}
	if got := q.Where[0].Right.Str; got != "O'Brien" {
		t.Errorf("escaped literal = %q, want %q", got, "O'Brien")
	}

	// Doubled quotes at the very start, middle, and end of the literal.
	q, err = parseSelect(`SELECT STRING FROM TOKEN WHERE STRING='''a''''b'''`)
	if err != nil {
		t.Fatalf("parseSelect: %v", err)
	}
	if got := q.Where[0].Right.Str; got != `'a''b'` {
		t.Errorf("escaped literal = %q, want %q", got, `'a''b'`)
	}

	// A trailing escaped quote must not be mistaken for the terminator.
	if _, err := parseSelect(`SELECT STRING FROM TOKEN WHERE STRING='oops''`); err == nil ||
		!strings.Contains(err.Error(), "unterminated") {
		t.Errorf("trailing escaped quote: %v, want unterminated-literal error", err)
	}
}

func TestMalformedNumber(t *testing.T) {
	_, err := parseSelect(`SELECT X FROM T WHERE A=1.2.3`)
	if err == nil {
		t.Fatal("parseSelect accepted 1.2.3")
	}
	if !strings.Contains(err.Error(), "malformed number") {
		t.Errorf("error = %v, want malformed number", err)
	}
	if !strings.Contains(err.Error(), "line 1 column 25") {
		t.Errorf("error = %v, want position line 1 column 25", err)
	}
}

// ---- ORDER BY / LIMIT / HAVING parsing ----

func TestParseOrderByLimit(t *testing.T) {
	q, err := parseSelect(`SELECT STRING FROM TOKEN ORDER BY P DESC, STRING ASC LIMIT 10`)
	if err != nil {
		t.Fatalf("parseSelect: %v", err)
	}
	if len(q.OrderBy) != 2 {
		t.Fatalf("order keys = %d, want 2", len(q.OrderBy))
	}
	if q.OrderBy[0].Col.Name != "P" || !q.OrderBy[0].Desc {
		t.Errorf("first key = %+v, want P DESC", q.OrderBy[0])
	}
	if q.OrderBy[1].Col.Name != "STRING" || q.OrderBy[1].Desc {
		t.Errorf("second key = %+v, want STRING ASC", q.OrderBy[1])
	}
	if q.Limit != 10 {
		t.Errorf("limit = %d, want 10", q.Limit)
	}

	// LIMIT without ORDER BY, and the absent-limit default.
	q, err = parseSelect(`SELECT STRING FROM TOKEN LIMIT 3`)
	if err != nil {
		t.Fatalf("parseSelect: %v", err)
	}
	if q.Limit != 3 || len(q.OrderBy) != 0 {
		t.Errorf("bare LIMIT: limit=%d order=%v", q.Limit, q.OrderBy)
	}
	q, err = parseSelect(`SELECT STRING FROM TOKEN`)
	if err != nil {
		t.Fatalf("parseSelect: %v", err)
	}
	if q.Limit != -1 {
		t.Errorf("absent LIMIT = %d, want -1", q.Limit)
	}
}

func TestParseHaving(t *testing.T) {
	q, err := parseSelect(`SELECT DOC_ID FROM TOKEN GROUP BY DOC_ID HAVING COUNT(*) > 2 AND DOC_ID < 9`)
	if err != nil {
		t.Fatalf("parseSelect: %v", err)
	}
	if len(q.Having) != 2 {
		t.Fatalf("having conds = %d, want 2", len(q.Having))
	}
	if q.Having[0].Left.Agg != "COUNT" || !q.Having[0].Left.Star || q.Having[0].Op != ">" {
		t.Errorf("first cond = %+v", q.Having[0])
	}
	if q.Having[1].Left.Col.Name != "DOC_ID" || q.Having[1].Op != "<" {
		t.Errorf("second cond = %+v", q.Having[1])
	}
}

func TestOrderLimitErrors(t *testing.T) {
	cases := []struct {
		sql  string
		frag string
	}{
		{`SELECT STRING FROM TOKEN LIMIT 0`, "at least 1"},
		{`SELECT STRING FROM TOKEN LIMIT 2.5`, "not an integer"},
		{`SELECT STRING FROM TOKEN LIMIT X`, "expected LIMIT count"},
		{`SELECT STRING FROM TOKEN ORDER STRING`, `expected "BY"`},
		{`SELECT STRING FROM TOKEN ORDER BY NOPE LIMIT 2`, "not in the select list"},
		{`SELECT STRING FROM TOKEN T ORDER BY U.STRING`, "unknown table alias"},
		{`SELECT X FROM T HAVING X > 1`, "HAVING requires aggregation"},
		{`SELECT X FROM T GROUP BY X HAVING COUNT(*) ==`, "expected"},
	}
	for _, c := range cases {
		_, _, err := Compile(c.sql)
		if err == nil {
			t.Errorf("Compile(%q) succeeded, want error containing %q", c.sql, c.frag)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Compile(%q) = %v, want %q", c.sql, err, c.frag)
		}
	}
}

// ---- planner lowering ----

// TestRankedSpecLowering pins the plan/spec split: ordering by the P
// pseudo-column stays result-level (no plan node can compute a
// cross-world marginal), while a pure column ordering with a LIMIT
// lowers to the per-world top-k operator.
func TestRankedSpecLowering(t *testing.T) {
	plan, spec, err := Compile(`SELECT STRING FROM TOKEN WHERE LABEL='B-PER' ORDER BY P DESC LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plan.(*ra.OrderLimit); ok {
		t.Error("ORDER BY P must not lower to a plan-level OrderLimit")
	}
	if !spec.TopKByProb() {
		t.Errorf("spec = %+v, want top-k-by-probability", spec)
	}
	if spec.Limit != 10 || len(spec.Order) != 1 || !spec.Order[0].ByProb || !spec.Order[0].Desc {
		t.Errorf("spec = %+v", spec)
	}

	plan, spec, err = Compile(`SELECT STRING FROM TOKEN ORDER BY STRING LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	ol, ok := plan.(*ra.OrderLimit)
	if !ok {
		t.Fatalf("plan root = %T, want *ra.OrderLimit", plan)
	}
	if ol.Limit != 2 || len(ol.Keys) != 1 || ol.Keys[0].Desc {
		t.Errorf("order-limit node = %+v", ol)
	}
	// The presentation spec mirrors the same keys and truncation.
	if len(spec.Order) != 1 || spec.Order[0].ByProb || spec.Order[0].Index != 0 || spec.Limit != 2 {
		t.Errorf("spec = %+v", spec)
	}

	// ORDER BY a column without LIMIT does not change per-world bag
	// membership: presentation-only.
	plan, spec, err = Compile(`SELECT STRING FROM TOKEN ORDER BY STRING DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plan.(*ra.OrderLimit); ok {
		t.Error("ORDER BY without LIMIT must stay result-level")
	}
	if len(spec.Order) != 1 || !spec.Order[0].Desc || spec.Limit > 0 {
		t.Errorf("spec = %+v", spec)
	}

	// A bare LIMIT truncates the default marginal ranking.
	_, spec, err = Compile(`SELECT STRING FROM TOKEN LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Order) != 0 || spec.Limit != 5 {
		t.Errorf("spec = %+v", spec)
	}
}

// ---- end-to-end evaluation over the shared fixture ----

func TestHavingEval(t *testing.T) {
	// Docs have 4, 3 and 1 tokens; HAVING an aggregate present in the
	// select list.
	bag := run(t, testDB(t), `SELECT DOC_ID, COUNT(*) AS N FROM TOKEN GROUP BY DOC_ID HAVING COUNT(*) > 2`)
	if bag.Len() != 2 {
		t.Fatalf("groups = %d, want 2", bag.Len())
	}
	counts := map[int64]int64{}
	bag.Each(func(_ string, r *ra.BagRow) bool {
		counts[r.Tuple[0].AsInt()] = r.Tuple[1].AsInt()
		return true
	})
	if counts[1] != 4 || counts[2] != 3 {
		t.Errorf("per-doc counts = %v", counts)
	}
}

func TestHavingHiddenAggregate(t *testing.T) {
	// The HAVING aggregate is absent from the select list: lowered as a
	// hidden aggregate and projected away, so the output stays arity 1.
	bag := run(t, testDB(t), `SELECT DOC_ID FROM TOKEN GROUP BY DOC_ID HAVING COUNT(*) > 2 AND MAX(TOK_ID) < 5`)
	rows := bag.Rows()
	if len(rows) != 1 || len(rows[0].Tuple) != 1 || rows[0].Tuple[0].AsInt() != 1 {
		t.Fatalf("rows = %v, want just doc 1 with arity 1", dumpRanked(bag))
	}
}

func TestOrderLimitEval(t *testing.T) {
	// Per-world top-2 by string: persons are Clinton, Ortiz, Smith.
	bag := run(t, testDB(t), `SELECT STRING FROM TOKEN WHERE LABEL='B-PER' ORDER BY STRING ASC LIMIT 2`)
	if bag.Size() != 2 {
		t.Fatalf("size = %d, want 2", bag.Size())
	}
	for _, name := range []string{"Clinton", "Ortiz"} {
		if bag.Count(relstore.Tuple{relstore.String(name)}.Key()) != 1 {
			t.Errorf("%s missing from top-2; got %v", name, dumpRanked(bag))
		}
	}

	// Descending order keeps the lexicographically largest instead.
	bag = run(t, testDB(t), `SELECT STRING FROM TOKEN WHERE LABEL='B-PER' ORDER BY STRING DESC LIMIT 1`)
	if bag.Size() != 1 || bag.Count(relstore.Tuple{relstore.String("Smith")}.Key()) != 1 {
		t.Errorf("top-1 desc = %v, want Smith", dumpRanked(bag))
	}

	// The limit counts multiplicities: doc 1 holds two persons, so the
	// per-doc limit clips inside a group of duplicates.
	bag = run(t, testDB(t), `SELECT DOC_ID FROM TOKEN WHERE LABEL='B-PER' ORDER BY DOC_ID ASC LIMIT 3`)
	if bag.Count(relstore.Tuple{relstore.Int(1)}.Key()) != 2 ||
		bag.Count(relstore.Tuple{relstore.Int(2)}.Key()) != 1 {
		t.Errorf("multiset limit = %v, want doc1 x2, doc2 x1", dumpRanked(bag))
	}
}

func dumpRanked(b *ra.Bag) []string {
	var out []string
	for _, r := range b.Rows() {
		out = append(out, r.Tuple.String())
	}
	return out
}
