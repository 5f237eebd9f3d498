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
// co-occurring with Boston labeled B-ORG — immediately starts seeing the
// corrected document: its person mentions enter the answer, because
// Query 4 selects on the corrected STRING (each at the probability that
// the corrected token is labeled B-ORG and the person token B-PER under
// the model as trained, which has not seen the correction). Reverting
// the correction shifts the answer straight back.
//
// The labels belong to the sampler: a write may set and select on
// evidence only, so the last step, an UPDATE of LABEL, is refused.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"factordb"
)

func main() {
	ctx := context.Background()
	db, err := factordb.Open(
		factordb.NER(factordb.NERConfig{Tokens: 8000, Seed: 7}),
		factordb.WithMode(factordb.ModeServed),
		factordb.WithSteps(1000),
		factordb.WithSeed(11),
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
	bostonDocs := map[int64]bool{}
	rows, err := db.Query(ctx, `SELECT DOC_ID FROM TOKEN WHERE STRING='Boston'`, factordb.Samples(2))
	if err != nil {
		log.Fatal(err)
	}
	for rows.Next() {
		var doc int64
		if err := rows.Scan(&doc); err != nil {
			log.Fatal(err)
		}
		bostonDocs[doc] = true
	}
	rows.Close()

	var tokID, docID int64 = -1, -1
	var oldString string
	rows, err = db.Query(ctx, `SELECT TOK_ID, DOC_ID, STRING FROM TOKEN`, factordb.Samples(2))
	if err != nil {
		log.Fatal(err)
	}
	for rows.Next() {
		var tok, doc int64
		var s string
		if err := rows.Scan(&tok, &doc, &s); err != nil {
			log.Fatal(err)
		}
		if !bostonDocs[doc] && tokID < 0 {
			tokID, docID, oldString = tok, doc, s
		}
	}
	rows.Close()
	if tokID < 0 {
		log.Fatal("every document already mentions Boston at this seed")
	}
	fmt.Printf("\ncorrection target: token %d in document %d currently reads %q\n", tokID, docID, oldString)

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
	fresh := 0
	for s, p := range corrected {
		if _, ok := baseline[s]; !ok {
			fmt.Printf("  new answer: %-20s p=%.3f  (person in the corrected document %d)\n", s, p, docID)
			fresh++
		}
	}
	if fresh == 0 {
		fmt.Println("  (no new tuples at this sample budget — the corrected token was rarely labeled B-ORG)")
	}

	// Revert the correction; the answer shifts straight back.
	if _, err := db.Exec(ctx, fmt.Sprintf(`UPDATE TOKEN SET STRING = '%s' WHERE TOK_ID = %d`, oldString, tokID)); err != nil {
		log.Fatal(err)
	}
	reverted := query4(ctx, db)
	fmt.Printf("\nQuery 4 after reverting: %d answer tuples (baseline had %d)\n", len(reverted), len(baseline))

	// LABEL is the hidden column the sampler walks; a write to it would
	// land in the store but not in the sampler's state.
	_, err = db.Exec(ctx, fmt.Sprintf(`UPDATE TOKEN SET LABEL = 'B-ORG' WHERE TOK_ID = %d`, tokID))
	if !errors.Is(err, factordb.ErrBadQuery) {
		log.Fatalf("UPDATE of LABEL = %v, want ErrBadQuery", err)
	}
	fmt.Printf("\nUPDATE of LABEL refused: %v\n", err)
}

// query4 returns Query 4's answer as tuple → marginal.
func query4(ctx context.Context, db *factordb.DB) map[string]float64 {
	rows, err := db.Query(ctx, factordb.Query4, factordb.Samples(200), factordb.NoCache())
	if err != nil {
		log.Fatal(err)
	}
	defer rows.Close()
	out := map[string]float64{}
	for rows.Next() {
		var s string
		if err := rows.Scan(&s); err != nil {
			log.Fatal(err)
		}
		out[s] = rows.Prob()
	}
	if err := rows.Err(); err != nil {
		log.Fatal(err)
	}
	return out
}
