package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"factordb/internal/core"
	"factordb/internal/exp"
)

// testSystem builds one small trained NER system shared by every test in
// the package (construction dominates test time).
var (
	sysOnce sync.Once
	sysVal  *exp.NERSystem
	sysErr  error
)

func testSystem(t testing.TB) *exp.NERSystem {
	t.Helper()
	sysOnce.Do(func() {
		sysVal, sysErr = exp.BuildNER(exp.Config{NumTokens: 3000, Seed: 5, UseSkip: true, TrainSteps: 20000})
	})
	if sysErr != nil {
		t.Fatal(sysErr)
	}
	return sysVal
}

const testThin = 300

// answerTuple is one answer tuple rendered for assertions.
type answerTuple struct {
	Values    []string
	P, Lo, Hi float64
}

// tuples renders res's answer through its read-only accessors.
func tuples(res *Result) []answerTuple {
	out := make([]answerTuple, res.Len())
	for i := range out {
		vals := make([]string, res.Width(i))
		for j := range vals {
			vals[j] = res.Value(i, j).String()
		}
		lo, hi := res.CI(i)
		out[i] = answerTuple{Values: vals, P: res.Prob(i), Lo: lo, Hi: hi}
	}
	return out
}

func testEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	if cfg.StepsPerSample == 0 {
		cfg.StepsPerSample = testThin
	}
	eng, err := New(testSystem(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

// TestEngineMatchesSingleQueryEvaluator is the core consistency property:
// a single-chain engine with a given seed walks the exact same chain as a
// stand-alone materialized evaluator with that seed, so the served
// marginals must be bitwise identical to core.Evaluator's.
func TestEngineMatchesSingleQueryEvaluator(t *testing.T) {
	sys := testSystem(t)
	const seed, samples = 31, 40

	eng := testEngine(t, Config{Chains: 1, Seed: seed})
	res, err := eng.Query(context.Background(), exp.Query1, QueryOptions{Samples: samples})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != samples {
		t.Fatalf("engine collected %d samples, want %d", res.Samples, samples)
	}

	ch, err := sys.NewChain(core.Materialized, exp.Query1, testThin, ChainSeed(seed, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Evaluator.Run(samples, nil); err != nil {
		t.Fatal(err)
	}
	want := ch.Evaluator.Results()
	if res.Len() != len(want) {
		t.Fatalf("engine answered %d tuples, evaluator %d", res.Len(), len(want))
	}
	got := tuples(res)
	for i, tp := range want {
		got := got[i]
		if got.P != tp.P || got.Values[0] != tp.Tuple[0].AsString() {
			t.Errorf("tuple %d: engine (%v, %v) vs evaluator (%v, %v)",
				i, got.Values[0], got.P, tp.Tuple[0].AsString(), tp.P)
		}
	}
}

// TestEngineServesConcurrentQueries is the integration test of the
// acceptance criteria: 8 concurrent queries mixing the paper's Queries
// 1–4 against one shared trained world.
func TestEngineServesConcurrentQueries(t *testing.T) {
	eng := testEngine(t, Config{Chains: 3, Seed: 7})
	queries := []string{
		exp.Query1, exp.Query2, exp.Query3, exp.Query4,
		exp.Query1, exp.Query2, exp.Query3, exp.Query4,
	}
	type outcome struct {
		res *Result
		err error
	}
	out := make([]outcome, len(queries))
	var wg sync.WaitGroup
	for i, sql := range queries {
		wg.Add(1)
		go func(i int, sql string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			res, err := eng.Query(ctx, sql, QueryOptions{Samples: 60, NoCache: true})
			out[i] = outcome{res, err}
		}(i, sql)
	}
	wg.Wait()

	for i, o := range out {
		if o.err != nil {
			t.Fatalf("query %d (%q): %v", i, queries[i], o.err)
		}
		if o.res.Samples < 60 {
			t.Errorf("query %d: %d samples, want >= 60", i, o.res.Samples)
		}
		if o.res.Chains != 3 {
			t.Errorf("query %d: served by %d chains", i, o.res.Chains)
		}
		if o.res.Partial {
			t.Errorf("query %d: unexpectedly partial", i)
		}
		for _, tp := range tuples(o.res) {
			if tp.P < 0 || tp.P > 1 || tp.Lo > tp.P || tp.Hi < tp.P {
				t.Errorf("query %d: malformed tuple %+v", i, tp)
			}
		}
	}
	// Query 2 (global count) answers a distribution over counts: exactly
	// one count per sample, so the marginals sum to 1.
	var mass float64
	for _, tp := range tuples(out[1].res) {
		mass += tp.P
	}
	if mass < 0.999 || mass > 1.001 {
		t.Errorf("Query 2 histogram mass = %v, want 1", mass)
	}
	// Query 1 must produce a non-degenerate answer on the trained world.
	if out[0].res.Len() == 0 {
		t.Error("Query 1 returned no tuples")
	}

	// The whole point of the shared-world engine: 8 queries × 60 samples
	// landed while the chains walked far fewer than 8 × 60 × k steps,
	// because in-flight queries share each chain's walk.
	samples := eng.m.samples.Value()
	if samples < 8*60 {
		t.Errorf("samples counter = %d, want >= 480", samples)
	}
	steps := eng.m.steps.Value()
	if naive := int64(8*60) * testThin; steps >= naive {
		t.Errorf("walked %d steps for 8 queries — no amortization (naive cost %d)", steps, naive)
	}
}

func TestQueryCache(t *testing.T) {
	eng := testEngine(t, Config{Chains: 2, Seed: 11})
	ctx := context.Background()
	r1, err := eng.Query(ctx, exp.Query1, QueryOptions{Samples: 10})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Error("first evaluation reported cached")
	}
	r2, err := eng.Query(ctx, exp.Query1, QueryOptions{Samples: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Error("second evaluation missed the cache")
	}
	if r2.Samples != r1.Samples || r2.Len() != r1.Len() {
		t.Error("cached result differs from original")
	}
	// A different sample budget is a different cache key.
	r3, err := eng.Query(ctx, exp.Query1, QueryOptions{Samples: 12})
	if err != nil {
		t.Fatal(err)
	}
	if r3.Cached {
		t.Error("different budget should not hit the cache")
	}
}

func TestQueryErrors(t *testing.T) {
	eng := testEngine(t, Config{Chains: 1, Seed: 13})
	ctx := context.Background()
	if _, err := eng.Query(ctx, "SELECT FROM", QueryOptions{}); err == nil || !strings.Contains(err.Error(), "bad query") {
		t.Errorf("parse error not surfaced as bad query: %v", err)
	}
	if _, err := eng.Query(ctx, "SELECT X FROM NO_SUCH_TABLE", QueryOptions{Samples: 4}); err == nil || !strings.Contains(err.Error(), "bad query") {
		t.Errorf("bind error not surfaced as bad query: %v", err)
	}
	if _, err := eng.Query(ctx, exp.Query1, QueryOptions{Confidence: 2}); err == nil {
		t.Error("confidence outside (0,1) accepted")
	}
	// A negative budget is rejected on both entry points, not replaced by
	// the default (zero is the default).
	if _, err := eng.Query(ctx, exp.Query1, QueryOptions{Samples: -5}); !errors.Is(err, ErrBadQuery) {
		t.Errorf("negative sample budget: err = %v, want ErrBadQuery", err)
	}
	if _, err := eng.Query(ctx, "SELECT STRING FROM TOKEN WHERE LABEL=?",
		QueryOptions{Samples: -1, Args: []any{"B-PER"}}); !errors.Is(err, ErrBadQuery) {
		t.Errorf("negative sample budget with placeholder args: err = %v, want ErrBadQuery", err)
	}
	expired, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	defer cancel()
	if _, err := eng.Query(expired, exp.Query1, QueryOptions{Samples: 4, NoCache: true}); err == nil {
		t.Error("expired context accepted")
	}
}

func TestPartialResultOnTimeout(t *testing.T) {
	eng := testEngine(t, Config{Chains: 2, Seed: 17})
	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	// A budget far beyond what 400ms allows: the session must come back
	// with whatever the chains produced, flagged partial.
	res, err := eng.Query(ctx, exp.Query1, QueryOptions{Samples: 1_000_000, NoCache: true})
	if err != nil {
		// Acceptable only if not even one sample landed in time.
		t.Skipf("no samples within the timeout on this machine: %v", err)
	}
	if !res.Partial {
		t.Error("truncated query not flagged partial")
	}
	if res.Samples <= 0 || res.Samples >= 1_000_000 {
		t.Errorf("partial sample count %d", res.Samples)
	}
}

func TestEngineClose(t *testing.T) {
	eng, err := New(testSystem(t), Config{Chains: 2, Seed: 19, StepsPerSample: testThin})
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
	eng.Close() // idempotent
	if _, err := eng.Query(context.Background(), exp.Query1, QueryOptions{}); err != ErrClosed {
		t.Errorf("Query after Close = %v, want ErrClosed", err)
	}
}

// TestCloseDuringInflightQuery races Close against a Query that could
// never finish its budget: the session must be woken by the chain
// shutdown and return promptly — either ErrClosed (nothing sampled yet)
// or a partial result — instead of blocking until its context expires.
func TestCloseDuringInflightQuery(t *testing.T) {
	eng, err := New(testSystem(t), Config{Chains: 2, Seed: 29, StepsPerSample: testThin})
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := eng.Query(context.Background(), exp.Query1,
			QueryOptions{Samples: 1 << 30, NoCache: true})
		done <- outcome{res, err}
	}()
	time.Sleep(50 * time.Millisecond) // let the query register its views
	eng.Close()
	select {
	case o := <-done:
		switch {
		case o.err == nil:
			if !o.res.Partial {
				t.Error("query truncated by Close not flagged partial")
			}
		case o.err != ErrClosed:
			t.Errorf("query racing Close = %v, want ErrClosed or partial result", o.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Query did not return after Close — session is deadlocked")
	}
	// And again fully closed: the fast-fail path.
	if _, err := eng.Query(context.Background(), exp.Query1, QueryOptions{}); err != ErrClosed {
		t.Errorf("Query after Close = %v, want ErrClosed", err)
	}
}

// TestStoppingChainPublishes pins what a query cut short by Close
// merges: a stopping chain publishes the estimates of the views still
// live on it, so a subscriber that never completed reads every sample
// walked from its cell instead of nothing.
func TestStoppingChainPublishes(t *testing.T) {
	eng := testEngine(t, Config{Chains: 1, Seed: 31})
	reg := holdView(t, eng, exp.Query1)
	deadline := time.Now().Add(10 * time.Second)
	for eng.m.samples.Value() < 4 {
		if time.Now().After(deadline) {
			t.Fatal("the chain never sampled the held view")
		}
		time.Sleep(time.Millisecond)
	}
	eng.Close()
	if snap := reg.snapshot(); snap == nil || snap.Samples() < 4 {
		t.Fatalf("after Close the held view's cell holds %v, want its walked samples", snap)
	}
}

func TestAdmissionControl(t *testing.T) {
	a := newAdmission(1, 1)
	ctx := context.Background()
	if err := a.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if a.inFlight() != 1 {
		t.Fatalf("inFlight = %d", a.inFlight())
	}
	// Slot busy: one waiter fits in the queue, the next is shed.
	waiterIn := make(chan error, 1)
	go func() {
		err := a.acquire(ctx)
		waiterIn <- err
	}()
	// Wait until the waiter is queued before probing the overflow path.
	for i := 0; a.waiting.Load() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if err := a.acquire(ctx); err != ErrOverloaded {
		t.Errorf("queue overflow = %v, want ErrOverloaded", err)
	}
	a.release()
	if err := <-waiterIn; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
	a.release()

	// Waiting honors context cancellation.
	if err := a.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	short, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	defer cancel()
	if err := a.acquire(short); err != context.DeadlineExceeded {
		t.Errorf("cancelled wait = %v, want deadline exceeded", err)
	}
	a.release()
}

func TestResultCache(t *testing.T) {
	now := time.Unix(0, 0)
	c := newResultCache(2, time.Minute, nil)
	r := &Result{SQL: "a"}
	c.put([]byte("a"), r, now)
	// get shares the stored (frozen) result: a hit copies nothing.
	if got, ok := c.get([]byte("a"), now); !ok || got != r {
		t.Fatalf("immediate get = %+v, %v; want the stored result", got, ok)
	}
	// TTL expiry.
	if _, ok := c.get([]byte("a"), now.Add(2*time.Minute)); ok {
		t.Error("expired entry served")
	}
	// LRU eviction at capacity 2: touching "a" makes "b" the victim.
	c.put([]byte("a"), r, now)
	c.put([]byte("b"), &Result{SQL: "b"}, now)
	c.get([]byte("a"), now)
	c.put([]byte("c"), &Result{SQL: "c"}, now)
	if _, ok := c.get([]byte("b"), now); ok {
		t.Error("LRU victim survived")
	}
	if _, ok := c.get([]byte("a"), now); !ok {
		t.Error("recently used entry evicted")
	}
	if c.len() != 2 {
		t.Errorf("cache len = %d", c.len())
	}
	// Disabled cache.
	d := newResultCache(-1, time.Minute, nil)
	d.put([]byte("x"), r, now)
	if _, ok := d.get([]byte("x"), now); ok {
		t.Error("disabled cache served an entry")
	}
}

// TestEncodedOnceAcrossHeaders checks the answer's wire memo under
// concurrent hits: header copies of one answer, encoded from several
// goroutines at once, render once and all read the same bytes.
func TestEncodedOnceAcrossHeaders(t *testing.T) {
	frozen := &Result{Samples: 7, wire: new(encoding)}
	var renders atomic.Int32
	render := func(r *Result) []byte {
		renders.Add(1)
		return []byte(fmt.Sprint(r.Samples))
	}
	const readers = 8
	got := make([][]byte, readers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hit := *frozen // a cache hit's fresh header
			hit.Cached, hit.SQL = true, fmt.Sprint(i)
			got[i] = hit.Encoded(render)
		}()
	}
	wg.Wait()
	if n := renders.Load(); n != 1 {
		t.Fatalf("%d header copies rendered the answer %d times, want once", readers, n)
	}
	for i := range got {
		if &got[i][0] != &got[0][0] {
			t.Fatalf("reader %d got its own bytes, not the shared encoding", i)
		}
	}
}

// The HTTP endpoints formerly tested here moved behind the public facade;
// see TestHandlerEndpoints in the repository root package.
