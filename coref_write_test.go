package factordb

import (
	"context"
	"fmt"
	"testing"
)

// pairAnswer is PairQuery's answer as "id1,id2" → marginal.
func pairAnswer(t *testing.T, db *DB, samples int) map[string]float64 {
	t.Helper()
	rows, err := db.Query(context.Background(), PairQuery, Samples(samples), NoCache())
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	out := map[string]float64{}
	for rows.Next() {
		var a, b int64
		if err := rows.Scan(&a, &b); err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("%d,%d", a, b)] = rows.Prob()
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCorefSeesEvidenceWrites is the coref evidence-write reproduction.
// Coref(CorefConfig{}) holds 24 mentions of 6 entities, 4 each in
// MENTION_ID order; renaming mentions 0–11 (three entities) to one string
// makes every pair of them alike, so the walk should merge them and the
// same-cluster marginals of their 48 cross-entity pairs go from near 0
// to near 1. When every chain scored a copy of the generated text, the
// answer stayed at 132 tuples and no marginal moved, in either local
// mode.
func TestCorefSeesEvidenceWrites(t *testing.T) {
	const samples = 200
	for _, mode := range []Mode{ModeNaive, ModeMaterialized, ModeServed} {
		t.Run(mode.String(), func(t *testing.T) {
			db, err := Open(Coref(CorefConfig{}), WithMode(mode), WithChains(2), WithSeed(11), WithSteps(50))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			// The mean marginal of the renamed mentions' cross-entity pairs.
			crossMean := func(ans map[string]float64) float64 {
				var sum float64
				n := 0
				for i := 0; i < 12; i++ {
					for j := i + 1; j < 12; j++ {
						if i/4 != j/4 {
							sum += ans[fmt.Sprintf("%d,%d", i, j)]
							n++
						}
					}
				}
				return sum / float64(n)
			}
			before := pairAnswer(t, db, samples)
			if _, err := db.Exec(context.Background(), `UPDATE MENTION SET STRING = 'Qqqqqq Zzzzzz' WHERE MENTION_ID < 12`); err != nil {
				t.Fatal(err)
			}
			after := pairAnswer(t, db, samples)
			moved := 0
			for k, p := range after {
				if before[k] != p {
					moved++
				}
			}
			b, a := crossMean(before), crossMean(after)
			t.Logf("%d tuples before, %d after, %d marginals moved; cross-entity mean %.3f -> %.3f", len(before), len(after), moved, b, a)
			if moved == 0 {
				t.Fatal("no marginal moved after the write")
			}
			if b > 0.2 || a < 0.8 {
				t.Errorf("cross-entity pairs of the renamed mentions: mean marginal %.3f -> %.3f, want <= 0.2 -> >= 0.8", b, a)
			}
		})
	}
}
