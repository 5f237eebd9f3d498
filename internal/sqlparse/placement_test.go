package sqlparse

import (
	"fmt"
	"strings"
	"testing"

	"factordb/internal/ra"
)

// placementCorpus is the dialect corpus the placement invariant is held
// on: the paper's queries, the coreference pair query, and the
// COUNT-subquery, EXISTS and IN-subquery forms.
var placementCorpus = []string{
	query1,
	query2,
	query3,
	query4,
	query4 + ` ORDER BY P DESC LIMIT 10`,
	pairQuery,
	`SELECT T.STRING FROM TOKEN T WHERE EXISTS (SELECT * FROM TOKEN T1 WHERE T1.LABEL='B-ORG' AND T1.DOC_ID=T.DOC_ID)`,
	`SELECT T.STRING FROM TOKEN T WHERE T.DOC_ID IN (SELECT T1.DOC_ID FROM TOKEN T1 WHERE T1.LABEL='B-ORG')`,
	`SELECT TOK_ID FROM TOKEN WHERE DOC_ID IN (SELECT DOC_ID FROM TOKEN WHERE STRING='Boston')`,
	`SELECT TOK_ID FROM TOKEN WHERE LABEL='B-PER' AND DOC_ID IN (SELECT DOC_ID FROM TOKEN WHERE STRING='Boston')`,
	`SELECT T2.STRING FROM TOKEN T1 JOIN TOKEN T2 ON T1.DOC_ID = T2.DOC_ID WHERE T1.LABEL = 'B-PER'`,
	`SELECT T1.STRING, M.MENTION_ID FROM TOKEN T1, TOKEN T2, MENTION M
		WHERE T1.DOC_ID = T2.DOC_ID AND T1.TOK_ID < T2.TOK_ID AND T2.STRING = M.STRING AND M.CLUSTER > 0`,
}

// misplaced lists the selections of a bound tree that sit above where
// the planner's placement rule puts them, which both executors rely on
// since neither moves a predicate:
//
//   - a selection conjunct that binds against one input of a join below
//     it belongs on that input;
//   - a selection over a base relation belongs directly on its scan,
//     where it runs inside the scan.
//
// The search below a selection passes selections, projections,
// duplicate elimination and joins; a conjunct never moves through an
// aggregation, a set operation or a top-k.
func misplaced(b *ra.Bound) []string {
	var out []string
	var walk func(*ra.Bound)
	walk = func(n *ra.Bound) {
		if n.Kind == ra.KSelect {
			out = append(out, selectMisplaced(n)...)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(b)
	return out
}

func selectMisplaced(s *ra.Bound) []string {
	var out []string
	pred := s.Source.(*ra.Select).Pred
	var below func(n *ra.Bound, pastJoin bool)
	below = func(n *ra.Bound, pastJoin bool) {
		switch n.Kind {
		case ra.KScan:
			if !pastJoin && n != s.Children[0] {
				out = append(out, fmt.Sprintf("Select[%s] is not directly on Scan(%s AS %s)", pred, n.Table, n.Alias))
			}
		case ra.KJoin:
			for _, in := range n.Children {
				for _, c := range ra.Conjuncts(pred) {
					if _, err := ra.BindPredicate(in.Schema, c); err == nil {
						out = append(out, fmt.Sprintf("conjunct %s binds against one input of a join below its Select", c))
					}
				}
				below(in, true)
			}
		case ra.KSelect, ra.KProject, ra.KDistinct:
			below(n.Children[0], pastJoin)
		}
	}
	below(s.Children[0], false)
	return out
}

// unqualifiedInJoin reports whether a multi-table query's WHERE names a
// column without its alias. Only the catalog knows that column's table,
// so the planner leaves such a conjunct above the last join: the query
// is outside the placement invariant.
func unqualifiedInJoin(q *Query) bool {
	if len(q.From) < 2 {
		return false
	}
	for _, c := range q.Where {
		if c.SubEq != nil || c.Exists != nil {
			continue
		}
		if c.Left.Qual == "" || (c.In == nil && c.Right.IsCol && c.Right.Col.Qual == "") {
			return true
		}
	}
	return false
}

// TestPlannerPlacesEveryPredicate binds the dialect corpus against the
// test catalog and holds each tree to the placement invariant.
func TestPlannerPlacesEveryPredicate(t *testing.T) {
	db := testDB(t)
	for _, sql := range placementCorpus {
		plan, _, err := Compile(sql)
		if err != nil {
			t.Fatalf("Compile(%q): %v", sql, err)
		}
		b, err := ra.Bind(db, plan)
		if err != nil {
			t.Fatalf("Bind(%q): %v", sql, err)
		}
		for _, m := range misplaced(b) {
			t.Errorf("%s\n  %s\n%s", sql, m, strings.Join(ra.Render(b.Source), "\n"))
		}
	}
}
