package ivm_test

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"factordb/internal/core"
	"factordb/internal/exp"
	"factordb/internal/ivm"
	"factordb/internal/mcmc"
	"factordb/internal/ra"
	"factordb/internal/relstore"
	"factordb/internal/sqlparse"
	"factordb/internal/world"
)

// raceEnabled reports a race-detector build (see race_test.go), where
// allocation counts are not reproducible.
var raceEnabled bool

// allocBudget reads the named ceilings from testdata/alloc_budget.txt.
func allocBudget(t *testing.T) map[string]float64 {
	t.Helper()
	data, err := os.ReadFile("testdata/alloc_budget.txt")
	if err != nil {
		t.Fatalf("reading alloc budget: %v", err)
	}
	budget := make(map[string]float64)
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		n, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if !ok || err != nil {
			t.Fatalf("parsing alloc budget line %q", line)
		}
		budget[name] = n
	}
	return budget
}

// measure counts the heap allocations and kilobytes of one call of f.
// Unlike testing.AllocsPerRun it runs f exactly once: folding a delta
// twice is not the same work.
func measure(f func()) (allocs, kB float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc-before.TotalAlloc) / 1024
}

var paperQueries = []struct{ tag, sql string }{
	{"q1", exp.Query1}, {"q2", exp.Query2}, {"q3", exp.Query3}, {"q4", exp.Query4},
}

// walkedWorld builds the budget's world: a 5 000-token skip-chain NER
// system whose chain has walked 20 000 steps off the all-O start, with
// its change log drained. It returns the log, the chain's sampler and
// the paper queries bound against the chain's world, in paperQueries
// order.
func walkedWorld(tb testing.TB) (*world.ChangeLog, *mcmc.Sampler, []*ra.Bound) {
	tb.Helper()
	sys, err := exp.BuildNER(exp.Config{NumTokens: 5000, Seed: 1, UseSkip: true})
	if err != nil {
		tb.Fatal(err)
	}
	log, proposer, err := sys.NewChainWorld(0)
	if err != nil {
		tb.Fatal(err)
	}
	sampler := mcmc.NewSampler(proposer, 3)
	sampler.Run(20000)
	log.Drain()
	bounds := make([]*ra.Bound, len(paperQueries))
	for i, q := range paperQueries {
		if bounds[i], err = ra.Bind(log.DB(), mustCompile(tb, q.sql)); err != nil {
			tb.Fatal(err)
		}
	}
	return log, sampler, bounds
}

// TestViewAllocBudget is the allocation gate of view maintenance
// (testdata/alloc_budget.txt): what mounting each paper query with
// NewView costs on a walked 5 000-token world, in allocations and in
// kilobytes, and what folding one sample's delta costs. Counts only, so
// this is a gate, not a trend.
func TestViewAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget gate skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	budget := allocBudget(t)
	log, sampler, bounds := walkedWorld(t)

	const k, samples = 1000, 40
	views := make([]*ivm.View, len(paperQueries))
	for i, q := range paperQueries {
		var err error
		got, kB := measure(func() { views[i], err = ivm.NewView(bounds[i]) })
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("mount_%s: %v allocs, %.2f kB", q.tag, got, kB)
		if max := budget["mount_"+q.tag]; got > max {
			t.Errorf("mounting %s allocates %v, budget %v", q.tag, got, max)
		}
		if max := budget["mount_kb_"+q.tag]; kB > max {
			t.Errorf("mounting %s allocates %.1f kB, budget %v kB", q.tag, kB, max)
		}
	}
	folds := make([]float64, len(views))
	for i := 0; i < samples; i++ {
		sampler.Run(k)
		d := log.Drain()
		for j, v := range views {
			got, _ := measure(func() { v.Apply(d) })
			folds[j] += got
		}
	}
	for i, q := range paperQueries {
		got := folds[i] / samples
		t.Logf("fold_%s: %v allocs per sample", q.tag, got)
		if max := budget["fold_"+q.tag]; got > max {
			t.Errorf("folding a sample into %s allocates %v, budget %v", q.tag, got, max)
		}
	}

	// regroup: one document's persons leave and come back. The group's
	// slot is freed and taken again, and its row re-enters the answer
	// slot it held, so coming back allocates nothing.
	perDoc, err := ra.Bind(log.DB(), mustCompile(t, `SELECT DOC_ID, COUNT(*) AS N FROM TOKEN WHERE LABEL='B-PER' GROUP BY DOC_ID`))
	if err != nil {
		t.Fatal(err)
	}
	leave, back := personsOfOneDoc(t, log.DB())
	view, err := ivm.NewView(perDoc)
	if err != nil {
		t.Fatal(err)
	}
	n := view.Result().Len()
	worst := 0.0
	for round := 0; round < 4; round++ {
		for _, d := range []ivm.BaseDelta{leave, back} {
			got, _ := measure(func() { view.Apply(d) })
			if round > 0 {
				worst = max(worst, got)
			}
		}
		if got := view.Result().Len(); got != n {
			t.Fatalf("after round %d the view holds %d groups, want %d", round, got, n)
		}
	}
	t.Logf("regroup: %v allocs", worst)
	if max := budget["regroup"]; worst > max {
		t.Errorf("a group leaving and coming back allocates %v, budget %v", worst, max)
	}
}

func mustCompile(tb testing.TB, sql string) ra.Plan {
	tb.Helper()
	plan, _, err := sqlparse.Compile(sql)
	if err != nil {
		tb.Fatal(err)
	}
	return plan
}

// personsOfOneDoc returns a delta that removes every B-PER token of one
// document holding some, and one that puts them back.
func personsOfOneDoc(tb testing.TB, db *relstore.DB) (leave, back ivm.BaseDelta) {
	tb.Helper()
	tok, err := db.Relation("TOKEN")
	if err != nil {
		tb.Fatal(err)
	}
	docCol, labelCol := tok.Schema().ColIndex("DOC_ID"), tok.Schema().ColIndex("LABEL")
	leave, back = ivm.NewBaseDelta(), ivm.NewBaseDelta()
	doc := int64(-1)
	tok.Scan(func(_ relstore.RowID, t relstore.Tuple) bool {
		if t[labelCol].AsString() != "B-PER" || doc >= 0 && t[docCol].AsInt() != doc {
			return true
		}
		doc = t[docCol].AsInt()
		t = t.Clone()
		leave.Add("TOKEN", t, -1)
		back.Add("TOKEN", t, 1)
		return true
	})
	if doc < 0 {
		tb.Fatal("the walked world has no B-PER token")
	}
	return leave, back
}

// TestViewMountIsDeterministic mounts Query 3 twice on one walked world:
// its group-aggs emit their groups in slot order, which their input
// order fixes, so both answers list the same tuples in the same slots.
func TestViewMountIsDeterministic(t *testing.T) {
	_, _, bounds := walkedWorld(t)
	q3 := bounds[2]
	var answers [2]*ivm.Answer
	for i := range answers {
		v, err := ivm.NewView(q3)
		if err != nil {
			t.Fatal(err)
		}
		answers[i] = v.Result()
	}
	a, b := answers[0], answers[1]
	if a.Slots() != b.Slots() || a.Slots() < 2 {
		t.Fatalf("the mounts hold %d and %d slots, want the same, and several", a.Slots(), b.Slots())
	}
	for s := int32(0); int(s) < a.Slots(); s++ {
		if !a.Tuple(s).Identical(b.Tuple(s)) || a.Count(s) != b.Count(s) {
			t.Fatalf("slot %d holds %v×%d in one mount and %v×%d in the other", s, a.Tuple(s), a.Count(s), b.Tuple(s), b.Count(s))
		}
	}
}

// BenchmarkViewMount mounts each paper query on the budget test's walked
// world through a private tree; run it with -benchmem. live-kB is the
// heap one mounted view keeps alive.
func BenchmarkViewMount(b *testing.B) {
	_, _, bounds := walkedWorld(b)
	for i, q := range paperQueries {
		b.Run(q.tag, func(b *testing.B) {
			var view *ivm.View
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				var err error
				if view, err = ivm.NewView(bounds[i]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.GC()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/1024, "live-kB")
			runtime.KeepAlive(view)
		})
	}
}

// BenchmarkStreamEval runs each paper query once per iteration through
// ra.Stream, compiled once, over the world BenchmarkViewMount mounts on:
// one naive evaluation. A mount's ns/op over this one's says what a view
// costs beyond the full query it must run once. Run it with -benchmem.
func BenchmarkStreamEval(b *testing.B) {
	_, _, bounds := walkedWorld(b)
	for i, q := range paperQueries {
		b.Run(q.tag, func(b *testing.B) {
			it, _, err := ra.Stream(bounds[i])
			if err != nil {
				b.Fatal(err)
			}
			rows := 0
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				it(func(relstore.Tuple, int64) bool { rows++; return true })
			}
		})
	}
}

// BenchmarkAddSample times core.Estimator.AddSample on each paper query's
// view over the budget test's walked world, one sample per iteration:
// the k = 1000 walk-steps and the view's fold run with the timer
// stopped, so ns/op and allocs/op are the estimator's alone. Run it with
// -benchmem and a fixed -benchtime Nx: each iteration walks.
func BenchmarkAddSample(b *testing.B) {
	log, sampler, bounds := walkedWorld(b)
	for i, q := range paperQueries {
		b.Run(q.tag, func(b *testing.B) {
			view, err := ivm.NewView(bounds[i])
			if err != nil {
				b.Fatal(err)
			}
			est := core.NewEstimator()
			est.AddSample(view.Result())
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				sampler.Run(1000)
				view.Apply(log.Drain())
				b.StartTimer()
				est.AddSample(view.Result())
			}
		})
	}
}

// BenchmarkViewApply times View.Apply on each paper query's view over the
// budget test's walked world, one sample's delta per iteration: the
// k = 1000 walk-steps and their Drain run with the timer stopped, so
// ns/op and allocs/op are the view's fold alone. Run it with -benchmem
// and a fixed -benchtime Nx: each iteration walks.
func BenchmarkViewApply(b *testing.B) {
	log, sampler, bounds := walkedWorld(b)
	for i, q := range paperQueries {
		b.Run(q.tag, func(b *testing.B) {
			view, err := ivm.NewView(bounds[i])
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				sampler.Run(1000)
				d := log.Drain()
				b.StartTimer()
				view.Apply(d)
			}
		})
	}
}
