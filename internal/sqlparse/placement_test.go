package sqlparse

import (
	"fmt"
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"factordb/internal/ra"
)

// placementCorpus is the dialect corpus the placement invariant is held
// on: the paper's queries, the coreference pair query, the
// COUNT-subquery, EXISTS and IN-subquery forms, DISTINCT, a per-world
// top-k, and joins whose WHERE names columns without their alias.
var placementCorpus = []string{
	query1,
	query2,
	query3,
	query4,
	query4 + ` ORDER BY P DESC LIMIT 10`,
	pairQuery,
	`SELECT DISTINCT T.STRING FROM TOKEN T WHERE T.LABEL = 'B-PER'`,
	`SELECT STRING FROM TOKEN WHERE LABEL = 'B-PER' ORDER BY STRING DESC LIMIT 3`,
	`SELECT T.STRING FROM TOKEN T WHERE EXISTS (SELECT * FROM TOKEN T1 WHERE T1.LABEL='B-ORG' AND T1.DOC_ID=T.DOC_ID)`,
	`SELECT T.STRING FROM TOKEN T WHERE T.DOC_ID IN (SELECT T1.DOC_ID FROM TOKEN T1 WHERE T1.LABEL='B-ORG')`,
	`SELECT TOK_ID FROM TOKEN WHERE DOC_ID IN (SELECT DOC_ID FROM TOKEN WHERE STRING='Boston')`,
	`SELECT TOK_ID FROM TOKEN WHERE LABEL='B-PER' AND DOC_ID IN (SELECT DOC_ID FROM TOKEN WHERE STRING='Boston')`,
	`SELECT T2.STRING FROM TOKEN T1 JOIN TOKEN T2 ON T1.DOC_ID = T2.DOC_ID WHERE T1.LABEL = 'B-PER'`,
	`SELECT T1.STRING, M.MENTION_ID FROM TOKEN T1, TOKEN T2, MENTION M
		WHERE T1.DOC_ID = T2.DOC_ID AND T1.TOK_ID < T2.TOK_ID AND T2.STRING = M.STRING AND M.CLUSTER > 0`,
	// Unqualified columns that one table of the join has: the planner
	// qualifies them from the catalog.
	`SELECT M.MENTION_ID FROM TOKEN T, MENTION M WHERE LABEL = 'B-PER' AND T.STRING = M.STRING AND CLUSTER > 0`,
	`SELECT M.MENTION_ID FROM TOKEN T, MENTION M WHERE T.STRING = M.STRING AND TOK_ID < MENTION_ID`,
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
// aggregation or a top-k.
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

// TestPlannerPlacesEveryPredicate compiles the dialect corpus through a
// plan cache that binds against the test catalog and holds each tree to
// the placement invariant.
func TestPlannerPlacesEveryPredicate(t *testing.T) {
	pc := NewSchemaPlanCache(testDB(t), 0)
	for _, sql := range placementCorpus {
		c, _, err := pc.CompileQuery(sql)
		if err != nil {
			t.Fatalf("CompileQuery(%q): %v", sql, err)
		}
		b := c.Stmt
		for _, m := range misplaced(b) {
			t.Errorf("%s\n  %s\n%s", sql, m, strings.Join(ra.Render(b.Source), "\n"))
		}
	}
}

// TestDialectBindsEveryKind holds the plan algebra to the dialect: the
// corpora above, compiled and bound as the engines compile them, bind a
// node of every kind ra declares, so each kind that the executors, the
// pruner, EXPLAIN and the fingerprint carry is one a statement reaches.
func TestDialectBindsEveryKind(t *testing.T) {
	pc := NewSchemaPlanCache(testDB(t), 0)
	seen := map[ra.BoundKind]bool{}
	var walk func(*ra.Bound)
	walk = func(b *ra.Bound) {
		seen[b.Kind] = true
		for _, c := range b.Children {
			walk(c)
		}
	}
	sqls := slices.Clone(placementCorpus)
	for _, tc := range fingerprintCases {
		sqls = append(sqls, tc.sql)
	}
	for _, sql := range sqls {
		c, _, err := pc.CompileQuery(sql)
		if err != nil {
			t.Fatalf("CompileQuery(%q): %v", sql, err)
		}
		walk(c.Stmt)
	}
	kinds := boundKinds(t)
	for i, name := range kinds {
		if !seen[ra.BoundKind(i)] {
			t.Errorf("no statement binds a %s node: the dialect cannot produce it", name)
		}
	}
	for k := range seen {
		if int(k) >= len(kinds) {
			t.Errorf("a statement binds kind %d, which ra does not declare", k)
		}
	}
}

// boundKinds reads the BoundKind constants, in value order, from their
// declaration in package ra, so a kind added there is held to the
// dialect too.
func boundKinds(t *testing.T) []string {
	t.Helper()
	f, err := goparser.ParseFile(gotoken.NewFileSet(), filepath.Join("..", "ra", "bind.go"), nil, goparser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range f.Decls {
		g, ok := d.(*ast.GenDecl)
		if !ok || g.Tok != gotoken.CONST || len(g.Specs) == 0 {
			continue
		}
		if typ, ok := g.Specs[0].(*ast.ValueSpec).Type.(*ast.Ident); !ok || typ.Name != "BoundKind" {
			continue
		}
		for _, s := range g.Specs {
			names = append(names, s.(*ast.ValueSpec).Names[0].Name)
		}
	}
	if len(names) == 0 {
		t.Fatal("no BoundKind constants in ra/bind.go")
	}
	return names
}
