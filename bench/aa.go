package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// aaMetric summarises one metric over an A/A run set. Bound and
// SpreadBound are 0 for a metric that is reported but not gated.
type aaMetric struct {
	Unit        string    `json:"unit"`
	Bound       float64   `json:"bound,omitempty"`
	Values      []float64 `json:"values"`
	Min         float64   `json:"min"`
	Median      float64   `json:"median"`
	Max         float64   `json:"max"`
	Spread      float64   `json:"spread"` // (Q3 − Q1) ÷ median over the set
	SpreadBound float64   `json:"spread_over_bound,omitempty"`
}

func summarise(unit string, bound float64, xs []float64) aaMetric {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	a := aaMetric{Unit: unit, Bound: bound, Values: xs,
		Min: sorted[0], Median: median(xs), Max: sorted[len(sorted)-1], Spread: spread(xs)}
	if bound > 0 {
		a.SpreadBound = a.Spread / bound
	}
	return a
}

// aaSet is one A/A run set: the same code, one workload after another,
// each run a fresh process with its own seed.
type aaSet struct {
	When      string                         `json:"when"`
	Seconds   float64                        `json:"seconds"`
	Seeds     []int64                        `json:"seeds"`
	Env       environment                    `json:"env"`
	Workloads map[string]map[string]aaMetric `json:"workloads"`
	// The timings and workload-specific numbers of the same runs.
	Reported map[string]map[string]aaMetric `json:"reported_not_gated"`
}

// runAA is the noise gate, the acceptance driver's two checks at half
// the bound. For each workload it runs the benchmark n times back to back
// in fresh processes (seeds seed, seed+1, …: the driver varies the seed
// too) and prints each end-to-end metric's min / median / max and its
// spread as a share of its bound. It reports false when a spread exceeds
// half the bound — setup_s excepted, whose spread the driver does not
// look at — or when, given an earlier set of the same code, a median
// (that of setup_s too) is worse than the earlier one by more than half
// the bound. The numbers a run reports without gating them are
// summarised the same way, so the sets show what their noise is.
func runAA(workload string, seed int64, seconds float64, n int, manifestPath, outPath, againstPath, workDir string) (bool, error) {
	mf, err := readManifest(manifestPath)
	if err != nil {
		return false, err
	}
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	workloads := []string{workload}
	if workload == "all" {
		workloads = workloadNames
	}
	set := aaSet{When: time.Now().UTC().Format(time.RFC3339), Seconds: seconds,
		Workloads: map[string]map[string]aaMetric{}, Reported: map[string]map[string]aaMetric{}}
	for i := 0; i < n; i++ {
		set.Seeds = append(set.Seeds, seed+int64(i))
	}
	pass := true
	for _, wl := range workloads {
		values, reported := map[string][]float64{}, map[string][]float64{}
		for _, s := range set.Seeds {
			cmd := exec.Command(self, "--workload", wl, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0", "--workdir", workDir)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				os.Stderr.Write(out)
				return false, fmt.Errorf("%s seed %d: %w", wl, s, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var line contractLine
			if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
				return false, fmt.Errorf("%s seed %d: last line: %w", wl, s, err)
			}
			for name, mv := range line.Metrics {
				values[name] = append(values[name], mv.Value)
			}
			// Keep the run's full record (per-round readings) beside the set.
			rec := filepath.Join(workDir, "out", fmt.Sprintf("aa_%s_%d.json", wl, s))
			if err := os.Rename(filepath.Join(workDir, "out", fmt.Sprintf("run_%s.json", wl)), rec); err != nil {
				return false, err
			}
			data, err := os.ReadFile(rec)
			if err != nil {
				return false, err
			}
			var full result
			if err := json.Unmarshal(data, &full); err != nil {
				return false, fmt.Errorf("%s: %w", rec, err)
			}
			for name, v := range full.Reported {
				reported[name] = append(reported[name], v)
			}
			fmt.Fprintf(os.Stderr, "bench: aa %s seed %d done\n", wl, s)
		}
		set.Workloads[wl] = map[string]aaMetric{}
		fmt.Printf("%s: %d runs\n", wl, n)
		fmt.Printf("  %-28s %12s %12s %12s %8s %8s\n", "metric", "min", "median", "max", "spread", "÷bound")
		for _, mm := range mf.EndToEnd {
			xs := values[mm.Name]
			if len(xs) == 0 || mm.Bound == nil {
				return false, fmt.Errorf("%s: no values or no bound for %s", wl, mm.Name)
			}
			a := summarise(mm.Unit, *mm.Bound, xs)
			set.Workloads[wl][mm.Name] = a
			flag := ""
			if a.SpreadBound > 0.5 && mm.Name != "setup_s" {
				flag = "  NOISY"
				pass = false
			}
			fmt.Printf("  %-28s %12.4f %12.4f %12.4f %7.2f%% %8.2f%s\n", mm.Name, a.Min, a.Median, a.Max, a.Spread*100, a.SpreadBound, flag)
		}
		set.Reported[wl] = map[string]aaMetric{}
		for _, d := range perLayer {
			if xs := reported[d.Name]; len(xs) > 0 {
				a := summarise(d.Unit, 0, xs)
				set.Reported[wl][d.Name] = a
				fmt.Printf("  %-28s %12.4f %12.4f %12.4f %7.2f%%   (not gated)\n", d.Name, a.Min, a.Median, a.Max, a.Spread*100)
			}
		}
	}
	if againstPath != "" {
		ok, err := compareSets(mf, againstPath, &set)
		if err != nil {
			return false, err
		}
		pass = pass && ok
	}
	if outPath != "" {
		set.Env = captureEnv(&runConfig{Workload: workload, Seed: seed, Seconds: seconds, Scale: fullScale})
		data, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	return pass, nil
}

// compareSets prints how far each median of set moved from the set saved
// at path, and reports false when a gated one got worse by more than half
// its bound.
func compareSets(mf *manifest, path string, set *aaSet) (bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	var earlier aaSet
	if err := json.Unmarshal(data, &earlier); err != nil {
		return false, fmt.Errorf("%s: %w", path, err)
	}
	pass := true
	for _, wl := range workloadNames {
		if set.Workloads[wl] == nil || earlier.Workloads[wl] == nil {
			continue
		}
		fmt.Printf("%s: medians against %s\n", wl, path)
		for _, mm := range mf.EndToEnd {
			was, now := earlier.Workloads[wl][mm.Name].Median, set.Workloads[wl][mm.Name].Median
			shift := (now - was) / was
			worse := shift
			if mm.Better == "higher" {
				worse = -shift
			}
			flag := ""
			if worse > *mm.Bound/2 {
				flag = "  SHIFTED"
				pass = false
			}
			fmt.Printf("  %-28s %12.4f -> %12.4f %+7.2f%% %8.2f%s\n", mm.Name, was, now, shift*100, shift / *mm.Bound, flag)
		}
		for _, d := range perLayer {
			if was, ok := earlier.Reported[wl][d.Name]; ok {
				now := set.Reported[wl][d.Name].Median
				fmt.Printf("  %-28s %12.4f -> %12.4f %+7.2f%%   (not gated)\n", d.Name, was.Median, now, (now-was.Median)/was.Median*100)
			}
		}
	}
	return pass, nil
}
