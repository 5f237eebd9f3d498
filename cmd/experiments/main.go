// Command experiments regenerates every figure of the paper's evaluation
// (Section 5) and prints the series as text tables. Scales default to
// laptop-size; -scale full pushes toward the paper's settings (slower).
//
// Usage:
//
//	experiments -exp fig4a
//	experiments -exp all -scale medium
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"factordb/internal/exp"
	"factordb/internal/metrics"
)

type scaleCfg struct {
	fig4aSizes   []int
	fig4aSamples int
	figN         int // database size for fig4b/5/6/7/8
	thin         int
	samples      int
	chains       int
}

var scales = map[string]scaleCfg{
	"small": {
		fig4aSizes: []int{10_000, 30_000, 100_000}, fig4aSamples: 300,
		figN: 50_000, thin: 2000, samples: 200, chains: 8,
	},
	"medium": {
		fig4aSizes: []int{10_000, 30_000, 100_000, 300_000, 1_000_000}, fig4aSamples: 400,
		figN: 200_000, thin: 5000, samples: 300, chains: 8,
	},
	"full": {
		fig4aSizes: []int{10_000, 100_000, 1_000_000, 10_000_000}, fig4aSamples: 400,
		figN: 1_000_000, thin: 10000, samples: 500, chains: 8,
	},
}

func main() {
	var (
		which = flag.String("exp", "all", "fig4a|fig4b|fig5|fig6|fig7|fig8|ablation-k|all")
		scale = flag.String("scale", "small", "small|medium|full")
		seed  = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()
	cfg, ok := scales[*scale]
	if !ok {
		fatal(fmt.Errorf("unknown scale %q", *scale))
	}
	run := func(name string, fn func(scaleCfg, int64) error) {
		if *which != "all" && *which != name {
			return
		}
		fmt.Printf("==== %s (scale=%s) ====\n", name, *scale)
		start := time.Now()
		if err := fn(cfg, *seed); err != nil {
			fatal(err)
		}
		fmt.Printf("[%s done in %v]\n\n", name, time.Since(start).Round(time.Second))
	}
	run("fig4a", runFig4a)
	run("fig4b", runFig4b)
	run("fig5", runFig5)
	run("fig6", runFig6)
	run("fig7", runFig7)
	run("fig8", runFig8)
	run("ablation-k", runAblationK)
}

func runFig4a(cfg scaleCfg, seed int64) error {
	rows, err := exp.Fig4a(exp.Fig4aParams{
		Sizes: cfg.fig4aSizes, Seed: seed, Thin: cfg.thin,
		MaxSamples: cfg.fig4aSamples, TruthSamples: 600, TruthThin: cfg.thin,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %-14s %-14s %-14s %-14s %s\n",
		"tuples", "naive t1/2", "mater t1/2", "naive/sample", "mater/sample", "speedup")
	for _, r := range rows {
		speed := "n/a"
		if r.MaterPerSamp > 0 {
			speed = fmt.Sprintf("%.1fx", float64(r.NaivePerSamp)/float64(r.MaterPerSamp))
		}
		fmt.Printf("%-12d %-14s %-14s %-14s %-14s %s\n",
			r.Tuples,
			exp.FormatDuration(r.NaiveTime, r.NaiveHalved),
			exp.FormatDuration(r.MaterTime, r.MaterHalved),
			r.NaivePerSamp.Round(time.Microsecond),
			r.MaterPerSamp.Round(time.Microsecond),
			speed)
	}
	return nil
}

func printTrace(name string, tr *metrics.Trace, buckets int) {
	n := tr.Normalized()
	fmt.Printf("-- %s: normalized loss over time --\n", name)
	step := len(n.Points) / buckets
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(n.Points); i += step {
		p := n.Points[i]
		bar := strings.Repeat("#", int(p.Loss*50))
		fmt.Printf("%10s %6.3f %s\n", p.Elapsed.Round(time.Millisecond), p.Loss, bar)
	}
	final := n.Points[len(n.Points)-1]
	fmt.Printf("%10s %6.3f (final)\n", final.Elapsed.Round(time.Millisecond), final.Loss)
}

func runFig4b(cfg scaleCfg, seed int64) error {
	naive, mater, err := exp.Fig4b(cfg.figN, cfg.samples, cfg.thin, seed)
	if err != nil {
		return err
	}
	printTrace("naive sampler", naive, 20)
	printTrace("materialized sampler", mater, 20)
	nh, nok := naive.TimeToHalve()
	mh, mok := mater.TimeToHalve()
	fmt.Printf("time to halve: naive %s, materialized %s\n",
		exp.FormatDuration(nh, nok), exp.FormatDuration(mh, mok))
	return nil
}

func runFig5(cfg scaleCfg, seed int64) error {
	// The paper runs 100 samples per chain (Section 5.4).
	rows, err := exp.Fig5(cfg.figN, cfg.chains, 100, cfg.thin, seed)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %-14s %-14s %s\n", "chains", "sq error", "ideal 1/n", "ratio vs 1 chain")
	for _, r := range rows {
		ratio := 0.0
		if rows[0].SqErr > 0 {
			ratio = rows[0].SqErr / r.SqErr
		}
		fmt.Printf("%-8d %-14.5f %-14.5f %.2fx\n", r.Chains, r.SqErr, r.IdealErr, ratio)
	}
	return nil
}

func runFig6(cfg scaleCfg, seed int64) error {
	q2, q3, err := exp.Fig6(cfg.figN, cfg.samples, cfg.thin, seed)
	if err != nil {
		return err
	}
	printTrace("Query 2 (COUNT of B-PER)", q2, 15)
	printTrace("Query 3 (docs with #PER = #ORG)", q3, 15)
	return nil
}

func runFig7(cfg scaleCfg, seed int64) error {
	rows, err := exp.Fig7(cfg.figN, cfg.samples*2, cfg.thin, seed)
	if err != nil {
		return err
	}
	fmt.Println("-- person mention count distribution (Query 2 answer) --")
	for _, r := range rows {
		bar := strings.Repeat("#", int(r.P*200))
		fmt.Printf("%8d %6.3f %s\n", r.Count, r.P, bar)
	}
	return nil
}

func runFig8(cfg scaleCfg, seed int64) error {
	rows, err := exp.Fig8(cfg.figN, cfg.samples, cfg.thin, seed)
	if err != nil {
		return err
	}
	fmt.Println("-- persons co-occurring with Boston/B-ORG (Query 4) --")
	if len(rows) == 0 {
		fmt.Println("(empty answer at this scale/seed)")
	}
	for i, tp := range rows {
		if i >= 25 {
			fmt.Printf("... (%d more)\n", len(rows)-i)
			break
		}
		bar := strings.Repeat("#", int(tp.P*50))
		fmt.Printf("%-20s %6.3f %s\n", tp.Tuple.String(), tp.P, bar)
	}
	return nil
}

func runAblationK(cfg scaleCfg, seed int64) error {
	ks := []int{200, 1000, 5000, 20000}
	rows, err := exp.AblationK(cfg.figN/5, ks, 2_000_000, seed)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %-14s %s\n", "k", "loss AUC", "final loss")
	for _, r := range rows {
		fmt.Printf("%-10d %-14.4f %.5f\n", r.K, r.AUC, r.Final)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
