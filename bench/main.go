// Command bench is the repository's benchmark: four fixed-composition
// workloads over the 50 000-token NER database, the gated end-to-end
// metrics (and the ungated timings) from an untraced run, per-layer
// metrics from a separate traced run, a correctness check per workload,
// and an A/A mode that measures the benchmark's own run-to-run noise.
// See README.md.
//
//	bash bench/run.sh --workload paper_scaling --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload mixed_rw --seed 1 --seconds 15 --trace 1
//	bash bench/run.sh --workload all --aa 10 --aa-out bench/baseline/aa_set1.json
//	bash bench/run.sh --workload all --aa 10 --aa-out bench/baseline/aa_set2.json --aa-against bench/baseline/aa_set1.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var (
		wl      = flag.String("workload", "", "workload to run: paper_scaling, cold_reads, hot_reads_http or mixed_rw (with -aa also: all)")
		seed    = flag.Int64("seed", 1, "seed of the op order, the write targets and values (corpus and walks are the same in every run)")
		seconds = flag.Float64("seconds", 15, "cap on the measured phase, warm-up rounds included: when it runs out, measured rounds past the 7th are dropped")
		trace   = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics; 0 = untraced run reporting the end-to-end metrics")
		workDir = flag.String("workdir", ".bench_build", "scratch directory for data dirs, reports and trace files")
		aa      = flag.Int("aa", 0, "A/A mode: run the workload this many times in fresh processes and gate the spread of the end-to-end metrics")
		aaOut   = flag.String("aa-out", "", "A/A mode: also write the run set to this file")
		aaPrev  = flag.String("aa-against", "", "A/A mode: also gate every median against the run set in this file (an earlier -aa-out of the same code)")
		bench   = flag.String("manifest", "BENCHMARK.json", "path of BENCHMARK.json (bounds for the A/A gate)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *aa > 0 {
		ok, err := runAA(*wl, *seed, *seconds, *aa, *bench, *aaOut, *aaPrev, *workDir)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	cfg := &runConfig{Workload: *wl, Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Scale: fullScale, WorkDir: *workDir}
	res, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	if err := report(cfg, res); err != nil {
		fatal(err)
	}
	os.Exit(res.exitCode())
}

// exitCode is non-zero when any op failed or any answer was wrong.
func (r *result) exitCode() int {
	if !r.Correct || r.Failed > 0 {
		return 1
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// contractLine is the last line of standard output, in the form the
// benchmark contract fixes.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) contractLine(trace bool) contractLine {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	line := contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		line.Metrics[d.Name] = metricValue{Value: r.Metrics[d.Name], Unit: d.Unit}
	}
	return line
}

// report prints every metric by name and unit with the per-round values
// behind it, saves the full record, and ends with the contract line.
func report(cfg *runConfig, res *result) error {
	e := res.Env
	fmt.Printf("# %s seed=%d trace=%v: %d tokens, k=%d, %d samples/query, %d chains; nproc=%d GOMAXPROCS=%d %s\n",
		cfg.Workload, cfg.Seed, cfg.Trace, e.Tokens, e.K, e.Samples, e.Chains, e.NProc, e.GOMAXPROCS, e.GoVersion)
	fmt.Printf("# rounds: %d warm-up (%.2fs) + %d measured; %d pooled latency samples; loadavg %q -> %q\n",
		e.WarmupRounds, res.WarmupS, e.Rounds, res.LatSamples, e.LoadStart, e.LoadEnd)
	fmt.Printf("# set-ups (s): wall %.3f, cache probe around them %.3f, at reference cache speed %.3f\n", res.SetupWallS, res.ProbeS, res.SetupS)
	fmt.Print("# per-round ops/s:")
	for _, r := range res.Rounds {
		fmt.Printf(" %.1f", r.opsPerS())
	}
	fmt.Println()
	line := res.contractLine(cfg.Trace)
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("%-40s %16.4f %s\n", d.Name, line.Metrics[d.Name].Value, d.Unit)
	}
	for _, d := range perLayer {
		if v, ok := res.Reported[d.Name]; ok {
			fmt.Printf("%-40s %16.4f %s (not gated)\n", d.Name, v, d.Unit)
		}
	}
	for _, p := range res.Problems {
		fmt.Printf("# INCORRECT: %s\n", p)
	}
	for _, f := range res.Failures {
		fmt.Printf("# FAILED: %s\n", f)
	}

	dir := filepath.Join(cfg.WorkDir, "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	full, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	kind := "run"
	if cfg.Trace {
		kind = "layers"
	}
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s_%s.json", kind, cfg.Workload)), append(full, '\n'), 0o644); err != nil {
		return err
	}
	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}
