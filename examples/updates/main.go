// Updates example: the paper's data-update story, live. Because the
// probabilistic database is one possible world plus a factor graph, an
// evidence correction is a plain SQL UPDATE: mutate the world and keep
// sampling — no engine restart, no client-side recomputation, no lineage
// bookkeeping as in tuple-level probabilistic databases. The write
// changes the evidence and every answer that selects on it; it does not
// yet change the factor graph, so the labels' marginals come from a
// model that has not seen the correction (ROADMAP item 2).
//
// The demo corrects a transcription error: a token in a document that
// never mentioned Boston is fixed to read "Boston". Query 4 — persons
// co-occurring with Boston labeled B-ORG — selects on the corrected
// STRING, so the corrected document's tokens can enter the answer, at
// the probability that the corrected token is B-ORG and the other B-PER.
// Reverting the correction restores the evidence, not the sampled
// answer: Query 4's marginals hinge on labels the chains flip rarely, so
// at this budget two reads of one world can differ widely on a tuple, and
// the run prints by how much.
//
// The labels belong to the sampler: a write may set and select on
// evidence only, so the last step, an UPDATE of LABEL, is refused.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"maps"
	"math"
	"slices"

	"factordb"
)

func main() {
	ctx := context.Background()
	db, err := factordb.Open(
		factordb.NER(factordb.NERConfig{Tokens: 8000, Seed: 7}),
		factordb.WithMode(factordb.ModeServed),
		factordb.WithSteps(1000),
		factordb.WithSeed(11),
		factordb.WithBurnIn(200_000),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	fmt.Println(db.Describe())

	// Find the documents that already mention Boston, then pick a token
	// from some other document to "correct". These lookups read evidence
	// only, so they are certain: one evaluation each, no sampling, and
	// every tuple at marginal 1.
	var tok, doc, tokID, docID int64 = 0, 0, -1, -1
	var str, oldString string
	bostonDocs, inDoc := map[int64]bool{}, map[string]bool{}
	each(ctx, db, `SELECT DOC_ID FROM TOKEN WHERE STRING='Boston'`, func(float64) { bostonDocs[doc] = true }, &doc)
	each(ctx, db, `SELECT TOK_ID, DOC_ID, STRING FROM TOKEN`, func(float64) {
		if !bostonDocs[doc] && tokID < 0 {
			tokID, docID, oldString = tok, doc, str
		}
	}, &tok, &doc, &str)
	if tokID < 0 {
		log.Fatal("every document already mentions Boston at this seed")
	}
	fmt.Printf("\ncorrection target: token %d in document %d currently reads %q\n", tokID, docID, oldString)
	each(ctx, db, fmt.Sprintf(`SELECT STRING FROM TOKEN WHERE DOC_ID = %d`, docID), func(float64) { inDoc[str] = true }, &str)

	baseline := query4(ctx, db)
	fmt.Printf("\nQuery 4 before the correction: %d answer tuples\n", len(baseline))

	// The evidence correction. Exec returns once every chain's world has
	// absorbed the write and walked its burn-in.
	res, err := db.Exec(ctx, fmt.Sprintf(`UPDATE TOKEN SET STRING = 'Boston' WHERE TOK_ID = %d`, tokID))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nUPDATE applied to %d chain world(s) in %v (data epoch %d)\n",
		res.Chains, res.Elapsed.Round(1e6), res.Epoch)

	corrected := query4(ctx, db)
	fmt.Printf("\nQuery 4 after the correction: %d answer tuples\n", len(corrected))
	elsewhere := 0
	for _, s := range slices.Sorted(maps.Keys(corrected)) {
		if _, old := baseline[s]; !old && inDoc[s] {
			fmt.Printf("  new answer: %-20s p=%.3f  (a string of the corrected document %d)\n", s, corrected[s], docID)
		} else if !old {
			elsewhere++
		}
	}
	fmt.Printf("  and %d new answers that are strings of other documents\n", elsewhere)

	// Revert the correction: the evidence is as it was; the sampled
	// answer need not be.
	if _, err := db.Exec(ctx, fmt.Sprintf(`UPDATE TOKEN SET STRING = '%s' WHERE TOK_ID = %d`, oldString, tokID)); err != nil {
		log.Fatal(err)
	}
	reverted := query4(ctx, db)
	worst, at := 0.0, ""
	for _, m := range []map[string]float64{baseline, reverted} {
		for _, s := range slices.Sorted(maps.Keys(m)) {
			if d := math.Abs(reverted[s] - baseline[s]); d > worst {
				worst, at = d, s
			}
		}
	}
	fmt.Printf("\nQuery 4 after reverting: %d answer tuples (baseline had %d)\n", len(reverted), len(baseline))
	fmt.Printf("  matches the baseline: %v (largest marginal difference %.3f, on %q)\n", maps.Equal(reverted, baseline), worst, at)

	// LABEL is the hidden column the sampler walks; a write to it would
	// land in the store but not in the sampler's state.
	_, err = db.Exec(ctx, fmt.Sprintf(`UPDATE TOKEN SET LABEL = 'B-ORG' WHERE TOK_ID = %d`, tokID))
	if !errors.Is(err, factordb.ErrBadQuery) {
		log.Fatalf("UPDATE of LABEL = %v, want ErrBadQuery", err)
	}
	fmt.Printf("\nUPDATE of LABEL refused: %v\n", err)
}

// each runs sql and calls fn with each row's marginal after scanning the
// row into dest.
func each(ctx context.Context, db *factordb.DB, sql string, fn func(p float64), dest ...any) {
	rows, err := db.Query(ctx, sql, factordb.Samples(200), factordb.NoCache())
	if err != nil {
		log.Fatal(err)
	}
	defer rows.Close()
	for rows.Next() {
		if err := rows.Scan(dest...); err != nil {
			log.Fatal(err)
		}
		fn(rows.Prob())
	}
	if err := rows.Err(); err != nil {
		log.Fatal(err)
	}
}

// query4 returns Query 4's answer as tuple → marginal.
func query4(ctx context.Context, db *factordb.DB) map[string]float64 {
	out, s := map[string]float64{}, ""
	each(ctx, db, factordb.Query4, func(p float64) { out[s] = p }, &s)
	return out
}
