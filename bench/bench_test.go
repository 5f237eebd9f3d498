package main

import (
	"encoding/json"
	"math"
	"regexp"
	"sort"
	"strings"
	"testing"
)

func toyConfig(t *testing.T, workload string, trace bool) *runConfig {
	t.Helper()
	return &runConfig{Workload: workload, Seed: 3, Seconds: 0, Trace: trace, Scale: toyScale, WorkDir: t.TempDir()}
}

func loadManifest(t *testing.T) *manifest {
	t.Helper()
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func manifestNames(ms []manifestMetric) []string {
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name
	}
	sort.Strings(names)
	return names
}

// Every workload, untraced and traced, emits exactly the metric names
// BENCHMARK.json declares, all finite, with no failed op and every
// correctness check passing.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	mf := loadManifest(t)
	for _, wl := range mf.Workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(toyConfig(t, wl.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if code := res.exitCode(); code != 0 {
				t.Errorf("%s trace=%v: exit %d (failed=%d problems=%v)", wl.Name, trace, code, res.Failed, res.Problems)
			}
			want := manifestNames(mf.EndToEnd)
			if trace {
				want = manifestNames(mf.PerLayer)
			}
			line := res.contractLine(trace)
			got := make(map[string]float64, len(line.Metrics))
			for name, mv := range line.Metrics {
				got[name] = mv.Value
				if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
					t.Errorf("%s trace=%v: %s = %v", wl.Name, trace, name, mv.Value)
				}
				if !trace && mv.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", wl.Name, name)
				}
			}
			if g, w := strings.Join(sortedKeys(got), " "), strings.Join(want, " "); g != w {
				t.Errorf("%s trace=%v: emitted metrics\n %s\nwant\n %s", wl.Name, trace, g, w)
			}
		}
	}
}

// BENCHMARK.json stays inside the contract's limits and agrees with the
// tables in metrics.go.
func TestManifestShape(t *testing.T) {
	mf := loadManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(mf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(mf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(mf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if len(mf.Paths) != 1 || mf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", mf.Paths)
	}
	if len(mf.Command) != 2 || mf.Command[0] != "bash" || mf.Command[1] != "bench/run.sh" {
		t.Errorf("command = %v, want [bash bench/run.sh]", mf.Command)
	}
	if mf.RunSeconds < 1 || mf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", mf.RunSeconds)
	}
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	var wls []string
	for _, w := range mf.Workloads {
		use(w.Name)
		wls = append(wls, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if strings.Join(wls, " ") != strings.Join(workloadNames, " ") {
		t.Errorf("workloads %v, the program runs %v", wls, workloadNames)
	}
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.Name] = d.Unit
	}
	hasSetup := false
	for _, m := range mf.EndToEnd {
		use(m.Name)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric with unit s, better lower")
	}
	for _, m := range mf.PerLayer {
		use(m.Name)
		if m.Bound != nil {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	for _, m := range append(append([]manifestMetric(nil), mf.EndToEnd...), mf.PerLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q outside the contract's alphabet", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if units[m.Name] != m.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q in metrics.go", m.Name, m.Unit, units[m.Name])
		}
	}
	if g, w := manifestNames(mf.EndToEnd), len(endToEnd); len(g) != w {
		t.Errorf("%d end-to-end metrics in BENCHMARK.json, %d in metrics.go", len(g), w)
	}
	if g, w := manifestNames(mf.PerLayer), len(perLayer); len(g) != w {
		t.Errorf("%d per-layer metrics in BENCHMARK.json, %d in metrics.go", len(g), w)
	}
}

// One failed op, or one answer that is not what was written, must flip
// the exit status.
func TestInjectedFaultsFlipStatus(t *testing.T) {
	failed := toyConfig(t, wlMixed, false)
	failed.InjectFailedOp = true
	res, err := run(failed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.exitCode() == 0 {
		t.Errorf("injected failed op: failed=%d exit=%d", res.Failed, res.exitCode())
	}

	stale := toyConfig(t, wlMixed, false)
	stale.InjectStale = true
	res, err = run(stale)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.exitCode() == 0 {
		t.Errorf("injected stale answer: correct=%v exit=%d problems=%v", res.Correct, res.exitCode(), res.Problems)
	}
}

func opStream(t *testing.T, workload string, seed int64) []byte {
	t.Helper()
	g, err := newGenerator(workload, seed, toyScale)
	if err != nil {
		t.Fatal(err)
	}
	var rounds [][]op
	for r := 0; r < 3; r++ {
		rounds = append(rounds, g.round(r))
	}
	data, err := json.Marshal(rounds)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The same seed gives a byte-identical op sequence and SQL texts, another
// seed gives another sequence, and nothing handed to the database under
// test carries the seed itself.
func TestGeneratorDeterminism(t *testing.T) {
	const seed = 987654321
	for _, wl := range workloadNames {
		a, b := opStream(t, wl, seed), opStream(t, wl, seed)
		if string(a) != string(b) {
			t.Errorf("%s: two generations from one seed differ", wl)
		}
		if other := opStream(t, wl, seed+1); string(a) == string(other) {
			t.Errorf("%s: seeds %d and %d give the same op sequence", wl, seed, seed+1)
		}
		if strings.Contains(string(a), "987654321") {
			t.Errorf("%s: the seed appears in the generated statements", wl)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// the acceptance driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 7, 3, 5, 9, 2, 8, 4, 6})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %v, %v; Python gives 1, 3", q1, q3)
	}
}
