package ivm

import (
	"testing"

	"factordb/internal/ra"
	"factordb/internal/relstore"
)

func perProject(alias string) ra.Plan {
	return ra.NewProject(
		ra.NewSelect(ra.NewScan("TOKEN", alias),
			ra.Eq(ra.Col(ra.C(alias, "LABEL")), ra.Const(relstore.String("B-PER")))),
		ra.C(alias, "STRING"),
	)
}

func orgProject(alias string) ra.Plan {
	return ra.NewProject(
		ra.NewSelect(ra.NewScan("TOKEN", alias),
			ra.Eq(ra.Col(ra.C(alias, "LABEL")), ra.Const(relstore.String("B-ORG")))),
		ra.C(alias, "STRING"),
	)
}

func TestViewUnion(t *testing.T) {
	checkAgainstFullEval(t, ra.NewUnion(perProject("A"), orgProject("B")), 31, 48, 25, 4)
}

func TestViewDiffMonus(t *testing.T) {
	checkAgainstFullEval(t, ra.NewDiff(perProject("A"), orgProject("B")), 33, 48, 30, 4)
}

func TestViewDiffSelfCancelling(t *testing.T) {
	// L − L stays empty under arbitrary updates: a sharp test of the
	// monus delta rule reading both absolute multiplicities.
	checkAgainstFullEval(t, ra.NewDiff(perProject("A"), perProject("B")), 35, 32, 30, 3)
}

// countByString groups an EXCEPT's output by STRING. Both inputs project
// STRING, so the difference keeps the left alias's column name.
func countByString(diff ra.Plan) ra.Plan {
	return ra.NewGroupAgg(diff, []ra.ColRef{ra.C("A", "STRING")}, ra.Agg{Fn: ra.FnCount, As: "N"})
}

func TestViewGroupAggOverSelfCancellingDiff(t *testing.T) {
	// Every group's input nets to zero, so the view must stay empty from
	// its initial evaluation on: no (key, COUNT 0) rows.
	checkAgainstFullEval(t, countByString(ra.NewDiff(perProject("A"), perProject("B"))), 41, 48, 25, 4)
}

func TestViewGroupAggOverDiff(t *testing.T) {
	checkAgainstFullEval(t, countByString(ra.NewDiff(perProject("A"), orgProject("B"))), 43, 48, 25, 4)
}

func TestViewDistinct(t *testing.T) {
	checkAgainstFullEval(t, ra.NewDistinct(perProject("A")), 37, 48, 30, 4)
}

func TestViewDistinctOverUnion(t *testing.T) {
	// Composition: DISTINCT over a union of overlapping inputs.
	p := ra.NewDistinct(ra.NewUnion(perProject("A"), perProject("B")))
	checkAgainstFullEval(t, p, 39, 32, 25, 3)
}
