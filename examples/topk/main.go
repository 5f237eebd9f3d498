// Top-k example: MystiQ-style ranked answers (Section 2's related work)
// as first-class SQL — ORDER BY the P pseudo-column (the tuple's
// estimated marginal) with a LIMIT, ranked and truncated by the engine
// itself rather than in application code.
package main

import (
	"context"
	"fmt"
	"log"

	"factordb"
)

func main() {
	db, err := factordb.Open(
		factordb.NER(factordb.NERConfig{Tokens: 30000, Seed: 7}),
		factordb.WithSteps(2000),
		factordb.WithSeed(11),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	fmt.Println(db.Describe())

	// Query4Ranked is Query 4 plus "ORDER BY P DESC LIMIT 10": the rows
	// arrive already ranked by marginal and truncated to the top ten, so
	// there is nothing left to sort or filter client-side.
	rows, err := db.Query(context.Background(), factordb.Query4Ranked, factordb.Samples(500))
	if err != nil {
		log.Fatal(err)
	}
	defer rows.Close()

	fmt.Println("\ntop-10 persons co-occurring with Boston/B-ORG (p with 95% CI):")
	for rows.Next() {
		var s string
		if err := rows.Scan(&s); err != nil {
			log.Fatal(err)
		}
		lo, hi := rows.CI()
		fmt.Printf("  %-20s %.3f [%.3f, %.3f]\n", s, rows.Prob(), lo, hi)
	}
	if err := rows.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nranked by %d samples across %d chain(s)\n", rows.Samples(), rows.Chains())
}
