package serve

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"factordb/internal/exp"
	"factordb/internal/metrics"
)

// TestQueryTraceSpans pins the trace contract: opt-in tracing returns a
// span timeline that is contiguous (each span starts where the previous
// ended) and tiles the query's wall time, with the canonical plan
// fingerprint attached.
func TestQueryTraceSpans(t *testing.T) {
	eng := testEngine(t, Config{Chains: 2, Seed: 41})
	res, err := eng.Query(context.Background(), exp.Query1,
		QueryOptions{Samples: 8, NoCache: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if tr == nil {
		t.Fatal("traced query returned no trace")
	}
	if tr.Outcome != "ok" {
		t.Fatalf("outcome = %q, want ok", tr.Outcome)
	}
	if !strings.HasPrefix(tr.Plan, "bfp1:") {
		t.Fatalf("trace carries no plan fingerprint: %q", tr.Plan)
	}
	if len(tr.Spans) == 0 {
		t.Fatal("trace has no spans")
	}
	wantNames := map[string]bool{}
	var sum int64
	for i, s := range tr.Spans {
		wantNames[s.Name] = true
		if s.DurNS < 0 {
			t.Fatalf("span %q has negative duration %d", s.Name, s.DurNS)
		}
		if i > 0 {
			prev := tr.Spans[i-1]
			if s.StartNS != prev.StartNS+prev.DurNS {
				t.Fatalf("span %q starts at %d, previous ended at %d — timeline has a gap",
					s.Name, s.StartNS, prev.StartNS+prev.DurNS)
			}
		}
		sum += s.DurNS
	}
	// NoCache queries skip the cache_probe span (that path is pinned by
	// TestTraceCachedOutcome).
	for _, name := range []string{"compile", "admission_wait", "register", "sample_wait", "snapshot_merge", "rank"} {
		if !wantNames[name] {
			t.Errorf("trace is missing the %q span (have %v)", name, tr.Spans)
		}
	}
	// Contiguous spans from the first span's start to finish: the span
	// durations plus the (nanoseconds-scale) lead-in before the first
	// span must equal the wall time exactly.
	if got := sum + tr.Spans[0].StartNS; got != tr.WallNS {
		t.Fatalf("span durations sum to %dns (+%dns lead-in), wall time is %dns",
			sum, tr.Spans[0].StartNS, tr.WallNS)
	}

	// The trace landed in the debug ring, newest first.
	traces := eng.Traces()
	if len(traces) == 0 || traces[0].ID != tr.ID {
		t.Fatalf("debug ring does not lead with the traced query: %+v", traces)
	}
}

// TestTraceCachedOutcome pins that a cache hit on a traced query yields a
// short trace with outcome "cached".
func TestTraceCachedOutcome(t *testing.T) {
	eng := testEngine(t, Config{Chains: 1, Seed: 43})
	if _, err := eng.Query(context.Background(), exp.Query1, QueryOptions{Samples: 4}); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(context.Background(), exp.Query1, QueryOptions{Samples: 4, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Fatal("second identical query missed the cache")
	}
	if res.Trace == nil || res.Trace.Outcome != "cached" {
		t.Fatalf("cached trace = %+v, want outcome cached", res.Trace)
	}
}

// TestTraceSamplerPicksQueries pins engine-initiated tracing: with
// TraceEvery=1 every query is traced without the client asking.
func TestTraceSamplerPicksQueries(t *testing.T) {
	eng := testEngine(t, Config{Chains: 1, Seed: 47, TraceEvery: 1})
	res, err := eng.Query(context.Background(), exp.Query1, QueryOptions{Samples: 4, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("TraceEvery=1 query carries no trace")
	}
	if len(eng.Traces()) == 0 {
		t.Fatal("debug ring is empty after a sampled trace")
	}
}

// TestUntracedQueryHasNoTrace pins the default: no opt-in, no sampler,
// no trace anywhere.
func TestUntracedQueryHasNoTrace(t *testing.T) {
	eng := testEngine(t, Config{Chains: 1, Seed: 53})
	res, err := eng.Query(context.Background(), exp.Query1, QueryOptions{Samples: 4, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatalf("untraced query carries a trace: %+v", res.Trace)
	}
	if n := len(eng.Traces()); n != 0 {
		t.Fatalf("debug ring holds %d traces with tracing off", n)
	}
}

// BenchmarkTraceOverhead pins the cost of the disabled tracing path: the
// nil-receiver span sites the query hot path pays when no one asked for
// a trace. This must stay within noise of free.
func BenchmarkTraceOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		var tr *qtrace
		for i := 0; i < b.N; i++ {
			tr.span("compile")
			tr.attr("k", "v")
			tr.setPlan("fp")
			if tr.finish("ok") != nil {
				b.Fatal("nil trace finished non-nil")
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := newTrace(int64(i), "SELECT 1", time.Now())
			tr.span("compile")
			tr.attr("k", "v")
			tr.setPlan("fp")
			if tr.finish("ok") == nil {
				b.Fatal("live trace finished nil")
			}
		}
	})
}

// --- sampler health diagnostics ---

func TestSplitRHatConverged(t *testing.T) {
	// Two chains drawing from the same alternating pattern: stationary
	// and identical, so R̂ must be very close to 1.
	a := make([]float64, 64)
	b := make([]float64, 64)
	for i := range a {
		a[i] = float64(i % 4)
		b[i] = float64((i + 2) % 4)
	}
	r := splitRHat([][]float64{a, b})
	if math.IsNaN(r) || r > 1.1 {
		t.Fatalf("converged chains: R-hat = %v, want ~1", r)
	}
}

func TestSplitRHatDiverged(t *testing.T) {
	// Two chains stuck in different modes: between-chain variance dwarfs
	// within-chain variance, so R̂ must be well above 1.
	a := make([]float64, 64)
	b := make([]float64, 64)
	for i := range a {
		a[i] = 1 + 0.01*float64(i%2)
		b[i] = 100 + 0.01*float64(i%2)
	}
	if r := splitRHat([][]float64{a, b}); r < 1.5 {
		t.Fatalf("diverged chains: R-hat = %v, want >> 1", r)
	}
}

func TestSplitRHatEdgeCases(t *testing.T) {
	if r := splitRHat(nil); !math.IsNaN(r) {
		t.Fatalf("no chains: R-hat = %v, want NaN", r)
	}
	if r := splitRHat([][]float64{{1, 2}, {1, 2}}); !math.IsNaN(r) {
		t.Fatalf("too few observations: R-hat = %v, want NaN", r)
	}
	con := []float64{3, 3, 3, 3, 3, 3, 3, 3}
	if r := splitRHat([][]float64{con, con}); r != 1 {
		t.Fatalf("constant equal chains: R-hat = %v, want 1", r)
	}
}

func TestEffectiveSampleSize(t *testing.T) {
	// Constant chains carry no autocorrelation signal: ESS reports the
	// raw draw count.
	con := []float64{3, 3, 3, 3, 3, 3, 3, 3}
	if e := effectiveSampleSize([][]float64{con, con}); e != 16 {
		t.Fatalf("constant chains: ESS = %v, want 16", e)
	}
	// A strongly autocorrelated (slowly ramping) chain must be worth far
	// fewer independent samples than its draw count.
	n := 128
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = float64(i)
		b[i] = float64(i) + 0.5
	}
	e := effectiveSampleSize([][]float64{a, b})
	if math.IsNaN(e) || e > float64(n) {
		t.Fatalf("ramping chains: ESS = %v, want < %d and finite", e, n)
	}
	if e > float64(n)/4 {
		t.Fatalf("ramping chains: ESS = %v, want heavy autocorrelation discount", e)
	}
}

func TestSampleSeriesRing(t *testing.T) {
	s := newSampleSeries()
	for i := 0; i < seriesCap+10; i++ {
		s.push(float64(i))
	}
	got := s.snapshot()
	if len(got) != seriesCap {
		t.Fatalf("ring holds %d, want %d", len(got), seriesCap)
	}
	if got[0] != 10 || got[len(got)-1] != float64(seriesCap+9) {
		t.Fatalf("ring window [%v..%v], want [10..%d]", got[0], got[len(got)-1], seriesCap+9)
	}
	s.reset()
	if n := len(s.snapshot()); n != 0 {
		t.Fatalf("reset ring holds %d observations", n)
	}
}

func TestRateTracker(t *testing.T) {
	start := time.Now()
	rt := newRateTracker(start)
	if r := rt.rate(100, start.Add(time.Second)); math.Abs(r-100) > 1e-9 {
		t.Fatalf("first scrape rate = %v, want 100", r)
	}
	if r := rt.rate(400, start.Add(3*time.Second)); math.Abs(r-150) > 1e-9 {
		t.Fatalf("second scrape rate = %v, want 150", r)
	}
}

// TestEngineStatusAndHealthGauges holds one view live and checks that it
// is visible with its refcount in Engine.Status and that the per-chain
// and per-view gauges render on the metrics page.
func TestEngineStatusAndHealthGauges(t *testing.T) {
	eng := testEngine(t, Config{Chains: 2, Seed: 59})
	defer holdView(t, eng, exp.Query1).detach()

	// Wait for the chain to produce a few epochs so the gauges have data.
	deadline := time.Now().Add(10 * time.Second)
	for eng.chains[0].stepsC.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("chain never walked")
		}
		time.Sleep(5 * time.Millisecond)
	}

	st := eng.Status()
	if st.Chains != 2 || len(st.Pool) != 2 {
		t.Fatalf("status pool = %d/%d chains, want 2", st.Chains, len(st.Pool))
	}
	if st.Pool[0].Steps <= 0 {
		t.Fatalf("chain 0 reports %d steps", st.Pool[0].Steps)
	}
	if len(st.Views) != 1 {
		t.Fatalf("status lists %d views, want 1 (held)", len(st.Views))
	}
	v := st.Views[0]
	if v.Fingerprint == "" || v.Subscribers != 1 || v.Chains != 1 {
		t.Fatalf("held view stat = %+v, want fingerprint, 1 subscriber on 1 chain", v)
	}

	var sb strings.Builder
	eng.Metrics().WriteText(&sb)
	text := sb.String()
	for _, want := range []string{
		`factordb_chain_steps_total{chain="0"}`,
		`factordb_chain_acceptance_rate{chain="1"}`,
		`factordb_chain_steps_per_second{chain="0"}`,
		"factordb_view_rhat{view=",
		"factordb_view_ess{view=",
		"factordb_cache_entries",
		"factordb_cache_evictions_total",
		"factordb_query_seconds_bucket{le=",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics page is missing %q", want)
		}
	}
}

// TestCacheEvictionMetrics pins the eviction counter: LRU overflow and
// TTL expiry both count, and the entries gauge tracks occupancy.
func TestCacheEvictionMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	ctr := reg.NewCounter("evictions", "test")
	c := newResultCache(2, time.Minute, ctr)
	now := time.Now()
	c.put([]byte("a"), &Result{SQL: "a"}, now)
	c.put([]byte("b"), &Result{SQL: "b"}, now)
	c.put([]byte("c"), &Result{SQL: "c"}, now) // evicts a (LRU overflow)
	if got := ctr.Value(); got != 1 {
		t.Fatalf("after overflow: %d evictions, want 1", got)
	}
	if n := c.len(); n != 2 {
		t.Fatalf("cache holds %d entries, want 2", n)
	}
	// TTL expiry on get counts too.
	if _, ok := c.get([]byte("b"), now.Add(2*time.Minute)); ok {
		t.Fatal("expired entry served")
	}
	if got := ctr.Value(); got != 2 {
		t.Fatalf("after TTL expiry: %d evictions, want 2", got)
	}
	if n := c.len(); n != 1 {
		t.Fatalf("cache holds %d entries after expiry, want 1", n)
	}
}

// TestSnapshotsOnDemand pins when a chain copies a view's estimate
// (factordb_snapshots_total): an unranked query that completes costs one
// snapshot per chain, taken in the epoch its budget is met, however many
// epochs it waited; a query its deadline cuts short costs one per
// unfinished chain, taken when the session detaches it, and still
// returns the samples walked.
func TestSnapshotsOnDemand(t *testing.T) {
	eng := testEngine(t, Config{Chains: 2, Seed: 73})
	ctx := context.Background()
	before := eng.m.snapshots.Value()
	for i := 0; i < 6; i++ {
		res, err := eng.Query(ctx, exp.Query1, QueryOptions{Samples: 16, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Partial || res.Samples < 16 {
			t.Fatalf("query %d: %d samples, partial=%v", i, res.Samples, res.Partial)
		}
	}
	if got := eng.m.snapshots.Value() - before; got != 12 {
		t.Errorf("6 completed queries on 2 chains took %d snapshots, want 12", got)
	}

	before = eng.m.snapshots.Value()
	short, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
	defer cancel()
	res, err := eng.Query(short, exp.Query1, QueryOptions{Samples: 1 << 30, NoCache: true})
	switch {
	case err != nil && !errors.Is(err, context.DeadlineExceeded):
		t.Fatalf("deadline-truncated query = %v", err)
	case err == nil && (!res.Partial || res.Samples <= 0):
		t.Errorf("deadline-truncated query: partial=%v, %d samples", res.Partial, res.Samples)
	}
	if got := eng.m.snapshots.Value() - before; got != 2 {
		t.Errorf("a query cut short on 2 chains took %d snapshots, want 2", got)
	}

	var sb strings.Builder
	eng.Metrics().WriteText(&sb)
	if !strings.Contains(sb.String(), "factordb_snapshots_total") {
		t.Error("metrics page is missing factordb_snapshots_total")
	}
}
