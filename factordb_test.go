package factordb

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"factordb/internal/core"
	"factordb/internal/exp"
)

// The facade tests share one small trained NER corpus configuration;
// the direct system and each facade DB built from it are trained
// identically (generation and SampleRank are deterministic in the seed),
// which is what makes exact facade-vs-direct comparisons possible.
const (
	testTokens     = 3000
	testTrainSteps = 20000
	testCorpusSeed = 5
	testThin       = 300
	testChainSeed  = 9
)

func testNERConfig() NERConfig {
	return NERConfig{Tokens: testTokens, Seed: testCorpusSeed, TrainSteps: testTrainSteps}
}

// directSystem is the reference exp.NERSystem, built once.
var (
	directOnce sync.Once
	directSys  *exp.NERSystem
	directErr  error
)

func directSystem(t testing.TB) *exp.NERSystem {
	t.Helper()
	directOnce.Do(func() {
		directSys, directErr = exp.BuildNER(exp.Config{
			NumTokens: testTokens, Seed: testCorpusSeed, TrainSteps: testTrainSteps, UseSkip: true,
		})
	})
	if directErr != nil {
		t.Fatal(directErr)
	}
	return directSys
}

// sharedDB returns the facade DB for a mode, built once per mode and
// shared across tests (training dominates test time). The served DB gets
// two chains. Tests must not Close a shared DB; lifecycle tests open
// their own cheap coref database instead.
var (
	dbOnce map[Mode]*sync.Once
	dbVal  = map[Mode]*DB{}
	dbErr  = map[Mode]error{}
	dbInit sync.Once
)

func sharedDB(t testing.TB, mode Mode) *DB {
	t.Helper()
	dbInit.Do(func() {
		dbOnce = map[Mode]*sync.Once{
			ModeNaive: new(sync.Once), ModeMaterialized: new(sync.Once), ModeServed: new(sync.Once),
		}
	})
	dbOnce[mode].Do(func() {
		opts := []Option{WithMode(mode), WithSteps(testThin), WithSeed(testChainSeed)}
		if mode == ModeServed {
			opts = append(opts, WithChains(2))
		}
		dbVal[mode], dbErr[mode] = Open(NER(testNERConfig()), opts...)
	})
	if dbErr[mode] != nil {
		t.Fatal(dbErr[mode])
	}
	return dbVal[mode]
}

// openCorefDB opens a private entity-resolution database — cheap to
// build (no training), used by lifecycle and error-path tests.
func openCorefDB(t testing.TB, opts ...Option) *DB {
	t.Helper()
	db, err := Open(Coref(CorefConfig{Entities: 5, MentionsPerEntity: 3, Seed: 17}),
		append([]Option{WithSteps(200), WithSeed(23)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// TestFacadeMatchesDirectEvaluator is the central equivalence property of
// the API redesign: on the paper's Query 1, the facade in both local
// modes returns bitwise the same marginals as wiring up a core.Evaluator
// by hand with the same corpus, thinning interval, seed and budget.
func TestFacadeMatchesDirectEvaluator(t *testing.T) {
	const samples = 40
	sys := directSystem(t)
	for _, mode := range []Mode{ModeNaive, ModeMaterialized} {
		t.Run(mode.String(), func(t *testing.T) {
			db := sharedDB(t, mode)
			rows, err := db.Query(context.Background(), Query1, Samples(samples))
			if err != nil {
				t.Fatal(err)
			}
			defer rows.Close()
			if rows.Samples() != samples {
				t.Fatalf("facade collected %d samples, want %d", rows.Samples(), samples)
			}

			coreMode := core.Naive
			if mode == ModeMaterialized {
				coreMode = core.Materialized
			}
			ch, err := sys.NewChain(coreMode, exp.Query1, testThin, testChainSeed)
			if err != nil {
				t.Fatal(err)
			}
			if err := ch.Evaluator.Run(samples, nil); err != nil {
				t.Fatal(err)
			}
			want := ch.Evaluator.Results()
			if rows.Len() != len(want) {
				t.Fatalf("facade answered %d tuples, evaluator %d", rows.Len(), len(want))
			}
			if len(want) == 0 {
				t.Fatal("degenerate test: Query 1 returned no tuples")
			}
			for i := 0; rows.Next(); i++ {
				var s string
				if err := rows.Scan(&s); err != nil {
					t.Fatal(err)
				}
				if s != want[i].Tuple[0].AsString() || rows.Prob() != want[i].P {
					t.Errorf("tuple %d: facade (%v, %v) vs evaluator (%v, %v)",
						i, s, rows.Prob(), want[i].Tuple[0].AsString(), want[i].P)
				}
				lo, hi := rows.CI()
				if lo > rows.Prob() || hi < rows.Prob() || lo < 0 || hi > 1 {
					t.Errorf("tuple %d: malformed interval [%v, %v] around %v", i, lo, hi, rows.Prob())
				}
			}
		})
	}
}

// TestRankedQueryEquivalence is the ranked-query acceptance property:
// SELECT ... ORDER BY P DESC LIMIT k returns exactly the prefix of the
// fetch-all answer (which is sorted by descending marginal), with
// identical tuples and marginals — the SQL replaces the client-side
// over-fetch-and-sort pattern losslessly. Local modes re-walk the same
// seeded chain per query, so the comparison is exact.
func TestRankedQueryEquivalence(t *testing.T) {
	const samples = 40
	const k = 3
	db := sharedDB(t, ModeMaterialized)
	ctx := context.Background()

	full, err := db.Query(ctx, Query1, Samples(samples))
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	type ans struct {
		s string
		p float64
	}
	var baseline []ans
	for full.Next() {
		var s string
		if err := full.Scan(&s); err != nil {
			t.Fatal(err)
		}
		baseline = append(baseline, ans{s, full.Prob()})
	}
	if len(baseline) <= k {
		t.Fatalf("degenerate corpus: only %d answer tuples", len(baseline))
	}

	ranked, err := db.Query(ctx, Query1+" ORDER BY P DESC LIMIT 3", Samples(samples))
	if err != nil {
		t.Fatal(err)
	}
	defer ranked.Close()
	if ranked.Len() != k {
		t.Fatalf("LIMIT %d returned %d tuples", k, ranked.Len())
	}
	for i := 0; ranked.Next(); i++ {
		var s string
		if err := ranked.Scan(&s); err != nil {
			t.Fatal(err)
		}
		if s != baseline[i].s || ranked.Prob() != baseline[i].p {
			t.Errorf("rank %d: ranked (%q, %v) vs fetch-all (%q, %v)",
				i, s, ranked.Prob(), baseline[i].s, baseline[i].p)
		}
	}

	// Ascending order flips the ranking; it must still truncate and
	// come back non-decreasing in P.
	asc, err := db.Query(ctx, Query1+" ORDER BY P ASC LIMIT 2", Samples(samples))
	if err != nil {
		t.Fatal(err)
	}
	defer asc.Close()
	if asc.Len() != 2 {
		t.Fatalf("ASC LIMIT 2 returned %d tuples", asc.Len())
	}
	prev := -1.0
	for asc.Next() {
		if asc.Prob() < prev {
			t.Errorf("ascending ranking violated: %v after %v", asc.Prob(), prev)
		}
		prev = asc.Prob()
	}
}

// TestHavingThroughFacade smoke-tests the HAVING lowering end-to-end:
// a grouped aggregate filtered post-aggregation, ranked and truncated.
func TestHavingThroughFacade(t *testing.T) {
	db := sharedDB(t, ModeMaterialized)
	rows, err := db.Query(context.Background(),
		`SELECT DOC_ID, COUNT(*) AS N FROM TOKEN GROUP BY DOC_ID HAVING COUNT(*) > 3 ORDER BY P DESC LIMIT 5`,
		Samples(10))
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if rows.Len() > 5 {
		t.Fatalf("LIMIT 5 returned %d tuples", rows.Len())
	}
	if got := rows.Columns(); len(got) != 2 || got[0] != "DOC_ID" || got[1] != "N" {
		t.Errorf("columns = %v, want [DOC_ID N]", got)
	}
	for rows.Next() {
		var doc, n int64
		if err := rows.Scan(&doc, &n); err != nil {
			t.Fatal(err)
		}
		if n <= 3 {
			t.Errorf("HAVING COUNT(*) > 3 leaked a group with %d rows", n)
		}
	}
}

// TestNaiveMatchesMaterialized pins Algorithm 1 against Algorithm 3
// through the public API: with the same seed both modes follow the same
// walk, so the answers must agree exactly — the paper's equivalence,
// observable by any client of the facade.
func TestNaiveMatchesMaterialized(t *testing.T) {
	const samples = 25
	results := map[Mode]map[string]float64{}
	for _, mode := range []Mode{ModeNaive, ModeMaterialized} {
		db := sharedDB(t, mode)
		rows, err := db.Query(context.Background(), Query1, Samples(samples))
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]float64{}
		for rows.Next() {
			var s string
			if err := rows.Scan(&s); err != nil {
				t.Fatal(err)
			}
			got[s] = rows.Prob()
		}
		rows.Close()
		results[mode] = got
	}
	naive, mater := results[ModeNaive], results[ModeMaterialized]
	if len(naive) == 0 || len(naive) != len(mater) {
		t.Fatalf("tuple sets differ: naive %d, materialized %d", len(naive), len(mater))
	}
	for s, p := range naive {
		if mp, ok := mater[s]; !ok || mp != p {
			t.Errorf("tuple %q: naive p=%v, materialized p=%v (present=%v)", s, p, mp, ok)
		}
	}
}

func TestCloseSemantics(t *testing.T) {
	db := openCorefDB(t)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	if _, err := db.Query(context.Background(), Query1); !errors.Is(err, ErrClosed) {
		t.Errorf("Query after Close = %v, want ErrClosed", err)
	}
}

func TestBadQueryErrors(t *testing.T) {
	db := openCorefDB(t)
	ctx := context.Background()

	// Parse errors carry their position through the facade verbatim.
	_, err := db.Query(ctx, "SELECT STRING, FROM TOKEN")
	if !errors.Is(err, ErrBadQuery) {
		t.Fatalf("parse failure = %v, want ErrBadQuery", err)
	}
	if !strings.Contains(err.Error(), "line 1 column 16") {
		t.Errorf("parse error lost its position: %v", err)
	}

	// Bind errors (unknown table) are bad queries too.
	if _, err := db.Query(ctx, "SELECT X FROM NO_SUCH_TABLE"); !errors.Is(err, ErrBadQuery) {
		t.Errorf("bind failure = %v, want ErrBadQuery", err)
	}

	// Confidence outside (0,1).
	if _, err := db.Query(ctx, PairQuery, Confidence(2)); !errors.Is(err, ErrBadQuery) {
		t.Errorf("confidence 2 = %v, want ErrBadQuery", err)
	}
}

// TestHiddenColumnDMLErrors pins the write rule for the column the
// sampler owns: an UPDATE that sets MENTION.CLUSTER, and an UPDATE or
// DELETE whose WHERE reads it, is a bad query naming the column in every
// mode, refused before the WAL append; an INSERT's CLUSTER is the new
// mention's initial state, and it commits.
func TestHiddenColumnDMLErrors(t *testing.T) {
	ctx := context.Background()
	for _, mode := range []Mode{ModeNaive, ModeMaterialized, ModeServed} {
		db := openCorefDB(t, WithMode(mode), WithChains(1), WithDataDir(t.TempDir()))
		wal := db.Durability().WALBytes
		for _, sql := range []string{
			`UPDATE MENTION SET CLUSTER = 0 WHERE MENTION_ID = 1`,
			`UPDATE MENTION SET STRING = 'X', CLUSTER = 0 WHERE MENTION_ID = 1`,
			`UPDATE MENTION SET STRING = 'X' WHERE CLUSTER = 0`,
			`DELETE FROM MENTION WHERE MENTION_ID = 1 AND CLUSTER >= 0`,
		} {
			_, err := db.Exec(ctx, sql)
			if !errors.Is(err, ErrBadQuery) || !strings.Contains(err.Error(), "MENTION.CLUSTER") {
				t.Errorf("%s: %s = %v, want ErrBadQuery naming MENTION.CLUSTER", mode, sql, err)
			}
		}
		if got := db.Durability().WALBytes; db.WriteEpoch() != 0 || got != wal {
			t.Errorf("%s: refused writes moved the write epoch to %d and the WAL from %d to %d bytes",
				mode, db.WriteEpoch(), wal, got)
		}
		res, err := db.Exec(ctx, `INSERT INTO MENTION (MENTION_ID, STRING, CLUSTER) VALUES (100, 'NEW', 7)`)
		if err != nil || res.RowsAffected != 1 {
			t.Errorf("%s: INSERT with an initial CLUSTER = %+v, %v; want one row committed", mode, res, err)
		}
	}
}

// TestNERConfigRejectsBadParams pins Open's refusal of NER parameters that
// would silently invert or poison the model — a negative temperature
// negates every trained weight, a NaN or infinite one makes every score
// NaN or 0 — or train and generate nothing. Each fails before any work,
// naming its field.
func TestNERConfigRejectsBadParams(t *testing.T) {
	for _, tc := range []struct {
		cfg  NERConfig
		want string
	}{
		{NERConfig{Temperature: math.Inf(1)}, "NERConfig.Temperature = +Inf"},
		{NERConfig{Temperature: -0.5}, "NERConfig.Temperature = -0.5"},
		{NERConfig{Tokens: -100}, "NERConfig.Tokens = -100"},
		{NERConfig{TokensPerDoc: -1}, "NERConfig.TokensPerDoc = -1"},
	} {
		if db, err := Open(NER(tc.cfg)); err == nil || !strings.Contains(err.Error(), tc.want) {
			if err == nil {
				db.Close()
			}
			t.Errorf("Open(NER(%+v)) = %v, want an error containing %q", tc.cfg, err, tc.want)
		}
	}
}

// TestCorefConfigRejectsBadParams: a negative count fails Open naming
// its field, as NER's do, and an entity count the mention generator
// cannot give distinct surnames fails it promptly instead of hanging.
func TestCorefConfigRejectsBadParams(t *testing.T) {
	for _, tc := range []struct {
		cfg  CorefConfig
		want string
	}{
		{CorefConfig{Entities: -1}, "CorefConfig.Entities = -1"},
		{CorefConfig{MentionsPerEntity: -2}, "CorefConfig.MentionsPerEntity = -2"},
		{CorefConfig{Entities: 72, Seed: 1}, "distinct surnames"},
	} {
		done := make(chan error, 1)
		go func() {
			db, err := Open(Coref(tc.cfg))
			if err == nil {
				db.Close()
			}
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Open(Coref(%+v)) = %v, want an error containing %q", tc.cfg, err, tc.want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("Open(Coref(%+v)) still running after 5 s", tc.cfg)
		}
	}
}

func TestContextCancellation(t *testing.T) {
	db := openCorefDB(t)

	// Already-cancelled context fails before any work.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.Query(cancelled, PairQuery); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ctx = %v, want context.Canceled", err)
	}

	// Cancelled mid-query: a budget far beyond the deadline. Without
	// AllowPartial the facade reports the context error.
	short, cancel2 := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel2()
	if _, err := db.Query(short, PairQuery, Samples(1<<30)); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("mid-query deadline = %v, want context.DeadlineExceeded", err)
	}

	// With AllowPartial the truncated estimate comes back instead.
	short2, cancel3 := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel3()
	rows, err := db.Query(short2, PairQuery, Samples(1<<30), AllowPartial())
	if err != nil {
		// Legal only if not even one sample landed before the deadline.
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("partial query = %v", err)
		}
		t.Skipf("no samples within the deadline on this machine: %v", err)
	}
	defer rows.Close()
	if !rows.Partial() {
		t.Error("truncated query not flagged partial")
	}
	if rows.Samples() <= 0 {
		t.Errorf("partial rows carry %d samples", rows.Samples())
	}
}

// TestServedMode exercises the facade over the concurrent engine: the
// same Query call, same Rows, backed by the chain pool.
func TestServedMode(t *testing.T) {
	db := sharedDB(t, ModeServed)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rows, err := db.Query(context.Background(), Query1, Samples(20), NoCache())
			if err != nil {
				errs[i] = err
				return
			}
			defer rows.Close()
			if rows.Chains() != 2 {
				t.Errorf("query %d served by %d chains, want 2", i, rows.Chains())
			}
			if rows.Samples() < 20 {
				t.Errorf("query %d: %d samples, want >= 20", i, rows.Samples())
			}
			for rows.Next() {
				if p := rows.Prob(); p < 0 || p > 1 {
					t.Errorf("query %d: probability %v out of range", i, p)
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("query %d: %v", i, err)
		}
	}

	// The result cache is reachable through the facade.
	r1, err := db.Query(context.Background(), Query1, Samples(10))
	if err != nil {
		t.Fatal(err)
	}
	r1.Close()
	r2, err := db.Query(context.Background(), Query1, Samples(10))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if !r2.Cached() {
		t.Error("second identical query missed the cache")
	}
}

// TestCorefWorkload opens the second workload through the same API.
func TestCorefWorkload(t *testing.T) {
	db := openCorefDB(t)
	rows, err := db.Query(context.Background(), PairQuery, Samples(50))
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if got := rows.Columns(); len(got) != 2 || got[0] != "MENTION_ID" || got[1] != "MENTION_ID" {
		t.Errorf("columns = %v", got)
	}
	seen := 0
	for rows.Next() {
		var a, b int64
		if err := rows.Scan(&a, &b); err != nil {
			t.Fatal(err)
		}
		if a >= b {
			t.Errorf("pair (%d, %d) violates MENTION_ID ordering", a, b)
		}
		if p := rows.Prob(); p <= 0 || p > 1 {
			t.Errorf("pair (%d, %d): probability %v out of range", a, b, p)
		}
		seen++
	}
	if seen == 0 {
		t.Error("no coreferent pairs sampled")
	}
}

// TestRowsEarlyStopped: a served ranked query whose LIMIT sits at a clean
// gap in the coref pair marginals stops before its sample budget, and
// Rows says so (the facade side of serve's TestRankedEarlyStop, on its
// configuration).
func TestRowsEarlyStopped(t *testing.T) {
	db, err := Open(Coref(CorefConfig{Entities: 4, MentionsPerEntity: 3, Seed: 17}),
		WithMode(ModeServed), WithChains(1), WithSeed(19), WithSteps(200))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()

	probe, err := db.Query(ctx, PairQuery, Samples(64), NoCache())
	if err != nil {
		t.Fatal(err)
	}
	var probs []float64
	for probe.Next() {
		probs = append(probs, probe.Prob())
	}
	probe.Close()
	k, gap := 0, 0.0
	for i := 1; i < len(probs); i++ {
		if g := probs[i-1] - probs[i]; g > gap {
			k, gap = i, g
		}
	}
	if k == 0 || gap < 0.25 {
		t.Skipf("no clean marginal gap at this seed (best gap %.3f at k=%d of %d); early stop untestable here",
			gap, k, len(probs))
	}

	const budget = 4000
	rows, err := db.Query(ctx, fmt.Sprintf("%s ORDER BY P DESC LIMIT %d", PairQuery, k), Samples(budget), NoCache())
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.EarlyStopped() {
		t.Fatalf("ranked query ran its full %d-sample budget across a clean gap (collected %d)", budget, rows.Samples())
	}
	if rows.Samples() >= budget {
		t.Errorf("early stop claimed but the full budget was spent (%d samples)", rows.Samples())
	}
}

func TestRowsScanContract(t *testing.T) {
	db := sharedDB(t, ModeMaterialized)
	rows, err := db.Query(context.Background(), Query2, Samples(10))
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if got := rows.Columns(); len(got) != 1 || got[0] != "PERSONS" {
		t.Errorf("columns = %v, want [PERSONS]", got)
	}
	if err := rows.Scan(new(int64)); err == nil {
		t.Error("Scan before Next succeeded")
	}
	if !rows.Next() {
		t.Fatal("empty Query 2 answer")
	}
	// The COUNT column is an int: int64, int, float64 and any all work;
	// bool does not.
	var i64 int64
	var f float64
	var anyv any
	if err := rows.Scan(&i64); err != nil {
		t.Errorf("Scan into *int64: %v", err)
	}
	if err := rows.Scan(&f); err != nil {
		t.Errorf("Scan into *float64: %v", err)
	}
	if err := rows.Scan(&anyv); err != nil {
		t.Errorf("Scan into *any: %v", err)
	}
	if err := rows.Scan(new(bool)); err == nil {
		t.Error("Scan int column into *bool succeeded")
	}
	if err := rows.Scan(new(int64), new(int64)); err == nil {
		t.Error("Scan with wrong arity succeeded")
	}
	if _, ok := anyv.(int64); !ok {
		t.Errorf("any destination got %T, want int64", anyv)
	}
	rows.Close()
	if rows.Next() {
		t.Error("Next after Close returned true")
	}
}

// TestHandlerRequestHardening covers the malformed-request paths of
// POST /query: every one must answer 400 without touching the engine —
// oversized bodies, unknown fields (a misspelled option silently ignored
// is worse than an error), trailing garbage, and broken JSON.
func TestHandlerRequestHardening(t *testing.T) {
	db := openCorefDB(t)
	srv := httptest.NewServer(db.Handler())
	defer srv.Close()

	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er struct {
			Error string `json:"error"`
		}
		if resp.StatusCode != http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Error == "" {
				t.Errorf("error response for %.40q lacks an error message (%v)", body, err)
			}
		}
		return resp.StatusCode
	}

	cases := []struct {
		name string
		body string
	}{
		{"broken JSON", `{"sql": `},
		{"not JSON at all", `SELECT STRING FROM TOKEN`},
		{"unknown field", `{"sql": "SELECT MENTION_ID FROM MENTION", "smaples": 5}`},
		{"trailing garbage", `{"sql": "SELECT MENTION_ID FROM MENTION"} {"again": true}`},
		{"oversized body", `{"sql": "SELECT MENTION_ID FROM MENTION", "pad": "` +
			strings.Repeat("x", MaxQueryBodyBytes) + `"}`},
		{"missing sql", `{}`},
		// A negative budget is not "use the default": zero is.
		{"negative samples", `{"sql": "SELECT MENTION_ID FROM MENTION", "samples": -5}`},
		{"negative timeout", `{"sql": "SELECT MENTION_ID FROM MENTION", "timeout_ms": -1}`},
	}
	for _, c := range cases {
		if got := post("/query", c.body); got != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, got)
		}
	}
	if got := post("/exec", `{"sql": "DELETE FROM MENTION WHERE MENTION_ID = 0", "timeout_ms": -1}`); got != http.StatusBadRequest {
		t.Errorf("exec with negative timeout: status %d, want 400", got)
	}

	// A well-formed request still works after all the rejects.
	if got := post("/query", `{"sql": "SELECT MENTION_ID FROM MENTION WHERE CLUSTER=0", "samples": 2}`); got != http.StatusOK {
		t.Errorf("well-formed request: status %d, want 200", got)
	}
	// A timeout past what a time.Duration holds in milliseconds clamps
	// to MaxQueryTimeout like any other, instead of wrapping to a
	// deadline already passed.
	for _, ms := range []string{"10000000000000", "4611686018427387904"} {
		if got := post("/query", `{"sql": "SELECT MENTION_ID FROM MENTION WHERE CLUSTER=0", "samples": 2, "timeout_ms": `+ms+`}`); got != http.StatusOK {
			t.Errorf("query with timeout_ms %s: status %d, want 200", ms, got)
		}
		if got := post("/exec", `{"sql": "UPDATE MENTION SET STRING = 'CLAMPED' WHERE MENTION_ID = 0", "timeout_ms": `+ms+`}`); got != http.StatusOK {
			t.Errorf("exec with timeout_ms %s: status %d, want 200", ms, got)
		}
	}
}

// TestHandlerEndpoints covers the HTTP transport now served by the
// facade (moved here from internal/serve).
func TestHandlerEndpoints(t *testing.T) {
	db := sharedDB(t, ModeServed)
	srv := httptest.NewServer(db.Handler())
	defer srv.Close()

	// POST /query happy path.
	body := `{"sql": "SELECT STRING FROM TOKEN WHERE LABEL='B-PER'", "samples": 8}`
	resp, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query status %d", resp.StatusCode)
	}
	var qr struct {
		Columns []string    `json:"columns"`
		Tuples  []tupleJSON `json:"tuples"`
		Samples int64       `json:"samples"`
		Chains  int         `json:"chains"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if qr.Samples < 8 || qr.Chains != 2 {
		t.Errorf("samples = %d chains = %d", qr.Samples, qr.Chains)
	}
	if len(qr.Columns) != 1 || qr.Columns[0] != "STRING" {
		t.Errorf("columns = %v", qr.Columns)
	}
	for _, tp := range qr.Tuples {
		if len(tp.Values) != 1 || tp.P < 0 || tp.P > 1 || tp.Lo > tp.P || tp.Hi < tp.P {
			t.Errorf("malformed tuple %+v", tp)
		}
	}

	// Client errors.
	for _, bad := range []string{`not json`, `{}`, `{"sql": "SELECT"}`} {
		resp, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", bad, resp.StatusCode)
		}
	}

	// GET /healthz.
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hr healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hr.Status != "ok" || hr.Chains != 2 || hr.Mode != "served" {
		t.Errorf("healthz = %d %+v", resp.StatusCode, hr)
	}

	// GET /metrics.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, want := range []string{
		"factordb_walk_steps_total",
		"factordb_query_samples_total",
		"factordb_queries_total",
		"factordb_acceptance_rate",
		"factordb_query_seconds_count",
		"factordb_chains 2",
		"go_goroutines ",
		"go_gc_heap_live_bytes ",
		"go_gc_cycles_total ",
		"go_gc_pause_seconds_total ",
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
