// Command factordb is a small CLI over the probabilistic database: it
// opens the synthetic NER workload through the public factordb facade,
// evaluates a SQL query with the naive or materialized MCMC evaluator,
// and prints tuple marginals with confidence intervals.
//
// Usage:
//
//	factordb -tokens 50000 -query "SELECT STRING FROM TOKEN WHERE LABEL='B-PER'" -samples 200
//	factordb -paper-query 3 -mode naive
//	factordb -paper-query 4 -limit 10   # ranked: ORDER BY P DESC LIMIT 10
//	factordb -exec "UPDATE TOKEN SET STRING='Boston' WHERE TOK_ID=4" -paper-query 4
//
// -exec applies a DML statement (INSERT, UPDATE or DELETE) before the
// query runs. The query sees the write only through its own evidence
// selection: the sampled factor graph is built once at set-up and does
// not see it, so an evidence correction does not move the hidden
// labels' marginals (ROADMAP item 2).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"factordb"
)

func main() {
	var (
		tokens  = flag.Int("tokens", 20000, "number of tokens in the synthetic corpus")
		seed    = flag.Int64("seed", 1, "random seed")
		query   = flag.String("query", "", "SQL query to evaluate (overrides -paper-query)")
		paperQ  = flag.Int("paper-query", 1, "evaluate the paper's Query 1..4")
		mode    = flag.String("mode", "materialized", "evaluator: naive or materialized")
		samples = flag.Int("samples", 200, "number of query samples to collect")
		thin    = flag.Int("thin", 2000, "MH walk-steps between samples (paper: 10000)")
		top     = flag.Int("top", 20, "print at most this many answer tuples")
		limit   = flag.Int("limit", 0, "rank in SQL: append ORDER BY P DESC LIMIT n to the query (0 = off)")
		noSkip  = flag.Bool("no-skip", false, "disable skip-chain factors (plain linear chain)")
		exec    = flag.String("exec", "", "DML statement (INSERT/UPDATE/DELETE) to apply before the query")
	)
	flag.Parse()

	sql := *query
	if sql == "" {
		switch *paperQ {
		case 1:
			sql = factordb.Query1
		case 2:
			sql = factordb.Query2
		case 3:
			sql = factordb.Query3
		case 4:
			sql = factordb.Query4
		default:
			fatal(fmt.Errorf("unknown paper query %d (want 1..4)", *paperQ))
		}
	}
	if *limit > 0 {
		up := strings.ToUpper(sql)
		if strings.Contains(up, "ORDER BY") || strings.Contains(up, "LIMIT") {
			fatal(fmt.Errorf("-limit cannot be combined with a query that already has ORDER BY or LIMIT"))
		}
		sql += fmt.Sprintf("\n ORDER BY P DESC LIMIT %d", *limit)
	}
	m, err := factordb.ParseMode(*mode)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("building NER system (%d tokens, seed %d)...\n", *tokens, *seed)
	start := time.Now()
	db, err := factordb.Open(
		factordb.NER(factordb.NERConfig{Tokens: *tokens, Seed: *seed, LinearChain: *noSkip}),
		factordb.WithMode(m),
		factordb.WithSteps(*thin),
		factordb.WithSeed(*seed+42),
	)
	if err != nil {
		fatal(err)
	}
	defer db.Close()
	fmt.Printf("%s (built in %v)\n", db.Describe(), time.Since(start).Round(time.Millisecond))

	if *exec != "" {
		res, err := db.Exec(context.Background(), *exec)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("exec: %s\n  %d row(s) affected, data epoch %d, %v\n",
			*exec, res.RowsAffected, res.Epoch, res.Elapsed.Round(time.Millisecond))
	}

	// EXPLAIN prints the diagnostic lines and exits: there is no sampling
	// run and no probability column worth showing.
	if strings.HasPrefix(strings.ToUpper(strings.TrimSpace(sql)), "EXPLAIN") {
		rows, err := db.Query(context.Background(), sql)
		if err != nil {
			fatal(err)
		}
		defer rows.Close()
		for rows.Next() {
			var line string
			if err := rows.Scan(&line); err != nil {
				fatal(err)
			}
			fmt.Println(line)
		}
		return
	}

	fmt.Printf("query: %s\nmode: %s, %d samples x %d steps\n", sql, m, *samples, *thin)
	rows, err := db.Query(context.Background(), sql, factordb.Samples(*samples))
	if err != nil {
		fatal(err)
	}
	defer rows.Close()
	fmt.Printf("sampling done in %v (%d samples)\n\n", rows.Elapsed().Round(time.Millisecond), rows.Samples())

	fmt.Printf("answer tuples: %d\n", rows.Len())
	fmt.Printf("%-40s %-7s %s\n", "TUPLE", "P", "95% CI")
	n := 0
	for rows.Next() {
		if n >= *top {
			fmt.Printf("... (%d more)\n", rows.Len()-n)
			break
		}
		vals, err := rows.Row()
		if err != nil {
			fatal(err)
		}
		lo, hi := rows.CI()
		fmt.Printf("%-40s %.4f  [%.3f, %.3f]\n", tupleString(vals), rows.Prob(), lo, hi)
		n++
	}
	if err := rows.Err(); err != nil {
		fatal(err)
	}
}

func tupleString(vals []any) string {
	s := "("
	for i, v := range vals {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprint(v)
	}
	return s + ")"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "factordb:", err)
	os.Exit(1)
}
