package sqldriver

import (
	"context"
	"database/sql"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"factordb"
	"factordb/internal/core"
	"factordb/internal/exp"
)

// The round-trip tests open the same small NER corpus the direct
// reference system is built from: generation and training are
// deterministic in the seed, so driver results can be compared exactly.
const (
	testTokens     = 3000
	testTrainSteps = 20000
	testSeed       = 5
	testThin       = 300
	testSamples    = 30
)

const nerDSN = "ner?tokens=3000&train_steps=20000&seed=5&steps=300&samples=30"

// openShared caches one sql.DB per DSN for the whole test run; the model
// build behind each DSN is the expensive part.
var (
	dbMu    sync.Mutex
	dbCache = map[string]*sql.DB{}
	sysOnce sync.Once
	sysVal  *exp.NERSystem
	sysErr  error
)

func openShared(t testing.TB, dsn string) *sql.DB {
	t.Helper()
	dbMu.Lock()
	defer dbMu.Unlock()
	if db, ok := dbCache[dsn]; ok {
		return db
	}
	db, err := sql.Open("factordb", dsn)
	if err != nil {
		t.Fatal(err)
	}
	dbCache[dsn] = db
	return db
}

func directSystem(t testing.TB) *exp.NERSystem {
	t.Helper()
	sysOnce.Do(func() {
		sysVal, sysErr = exp.BuildNER(exp.Config{
			NumTokens: testTokens, Seed: testSeed, TrainSteps: testTrainSteps, UseSkip: true,
		})
	})
	if sysErr != nil {
		t.Fatal(sysErr)
	}
	return sysVal
}

// queryMarginals runs the paper's Query 1 through database/sql and
// returns tuple → (p, lo, hi), asserting the wire contract on the way.
func queryMarginals(t *testing.T, db *sql.DB) map[string][3]float64 {
	t.Helper()
	rows, err := db.QueryContext(context.Background(), factordb.Query1)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"STRING", "P", "CI_LO", "CI_HI"}
	if len(cols) != len(want) {
		t.Fatalf("columns = %v, want %v", cols, want)
	}
	for i := range cols {
		if cols[i] != want[i] {
			t.Fatalf("columns = %v, want %v", cols, want)
		}
	}
	out := map[string][3]float64{}
	prev := 1.1
	for rows.Next() {
		var s string
		var p, lo, hi float64
		if err := rows.Scan(&s, &p, &lo, &hi); err != nil {
			t.Fatal(err)
		}
		if p < 0 || p > 1 || lo > p || hi < p {
			t.Errorf("tuple %q: malformed (p=%v, ci=[%v, %v])", s, p, lo, hi)
		}
		if p > prev {
			t.Errorf("result set not sorted by descending probability: %v after %v", p, prev)
		}
		prev = p
		out[s] = [3]float64{p, lo, hi}
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("Query 1 returned no tuples")
	}
	return out
}

// TestRoundTrip is the acceptance criterion of the API redesign: opening
// the database with sql.Open and running the paper's Query 1 through
// QueryContext returns the same tuple set as driving a core.Evaluator
// directly — in both naive and materialized mode, which (sharing one
// seed and hence one walk) must also agree with each other exactly.
func TestRoundTrip(t *testing.T) {
	// The direct reference: the same corpus, chain seed, thinning and
	// budget through internal wiring.
	ch, err := directSystem(t).NewChain(core.Materialized, exp.Query1, testThin, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Evaluator.Run(testSamples, nil); err != nil {
		t.Fatal(err)
	}
	wantRes := ch.Evaluator.Results()
	want := map[string]float64{}
	for _, tp := range wantRes {
		want[tp.Tuple[0].AsString()] = tp.P
	}

	marginals := map[string]map[string][3]float64{}
	for _, mode := range []string{"naive", "materialized"} {
		got := queryMarginals(t, openShared(t, nerDSN+"&mode="+mode))
		marginals[mode] = got
		if len(got) != len(want) {
			t.Fatalf("%s: driver answered %d tuples, evaluator %d", mode, len(got), len(want))
		}
		for s, phi := range got {
			if wp, ok := want[s]; !ok || wp != phi[0] {
				t.Errorf("%s: tuple %q: driver p=%v, evaluator p=%v (present=%v)", mode, s, phi[0], wp, ok)
			}
		}
	}
	// Naive and materialized agree through the driver too.
	for s, phi := range marginals["naive"] {
		if mp := marginals["materialized"][s]; mp != phi {
			t.Errorf("tuple %q: naive %v vs materialized %v", s, phi, mp)
		}
	}
}

func TestContextCancellation(t *testing.T) {
	// The coref workload builds instantly and PairQuery is cheap per
	// sample, so an effectively unbounded budget cancels mid-query.
	db := openShared(t, "coref?entities=8&mentions=5&seed=17&steps=500&samples=1000000000")

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	rows, err := db.QueryContext(ctx, factordb.PairQuery)
	if err == nil {
		rows.Close()
		t.Fatal("unbounded query under a 150ms deadline succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("mid-query cancellation = %v, want context.DeadlineExceeded", err)
	}

	// Already-cancelled context fails without touching the engine.
	done, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := db.QueryContext(done, factordb.PairQuery); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestDriverErrors(t *testing.T) {
	db := openShared(t, "coref?entities=5&mentions=3&seed=17&steps=200&samples=20")

	// SQL errors surface verbatim, position included.
	_, err := db.QueryContext(context.Background(), "SELECT STRING, FROM MENTION")
	if err == nil || !strings.Contains(err.Error(), "line 1 column 16") {
		t.Errorf("parse error lost its position through database/sql: %v", err)
	}

	// A write the store cannot resolve surfaces as an error.
	if _, err := db.ExecContext(context.Background(), "DELETE FROM NO_SUCH_TABLE"); err == nil ||
		!strings.Contains(err.Error(), "NO_SUCH_TABLE") {
		t.Errorf("Exec on an unknown table: %v, want an error naming it", err)
	}

	// Transactions are not supported.
	if _, err := db.Begin(); err == nil {
		t.Error("Begin succeeded")
	}

	// Prepared statements work for queries.
	stmt, err := db.Prepare(factordb.PairQuery)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	rows, err := stmt.QueryContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rows.Close()
}

// TestBadDSN pins the error each malformed DSN reports, through
// sql.Open's first use and through Driver.Open alike.
func TestBadDSN(t *testing.T) {
	for _, tc := range []struct{ dsn, want string }{
		{"mystery?tokens=100", `unknown model "mystery"`},
		{"ner?tokens=abc", `tokens="abc" is not an integer`},
		{"ner?temperature=hot", `temperature="hot" is not a number`},
		{"ner?linear=maybe", `linear="maybe" is not a boolean`},
		{"ner?temperature=-3", "NERConfig.Temperature = -3"},
		{"ner?temperature=NaN", "NERConfig.Temperature = NaN"},
		{"ner?train_steps=-1", "NERConfig.TrainSteps = -1"},
		{"ner?mode=quantum", `unknown mode "quantum"`},
		{"ner?tokens=100;seed=2", "bad DSN"},
		{"ner?target=Boston", `unknown DSN parameter "target"`},
		{"ner?sampels=64", `unknown DSN parameter "sampels"`},
		{"coref?tokens=800", `unknown DSN parameter "tokens"`},
		{"coref?mentions=-1", "CorefConfig.MentionsPerEntity = -1"},
		{"coref?entities=100", "distinct surnames"},
	} {
		db, err := sql.Open("factordb", tc.dsn)
		if err == nil {
			// database/sql may defer connector errors to first use.
			err = db.Ping()
			db.Close()
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("sql.Open(%q) = %v, want an error containing %q", tc.dsn, err, tc.want)
		}
		if _, err := (&Driver{}).Open(tc.dsn); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Driver.Open(%q) = %v, want an error containing %q", tc.dsn, err, tc.want)
		}
	}
}

// TestRankedThreePaths is the ranked-query acceptance criterion: ORDER
// BY P DESC LIMIT k returns identical tuples — same order, same
// marginals — through all three consumption paths: the direct evaluator
// (ranked by hand with the compiled result spec), factordb.DB.Query,
// and database/sql. All three share one corpus, chain seed, thinning
// interval and budget, so the walks — and hence the estimates — are
// bitwise identical.
func TestRankedThreePaths(t *testing.T) {
	const k = 5
	rankedSQL := factordb.Query1 + " ORDER BY P DESC LIMIT 5"
	ctx := context.Background()

	// Path 1: direct evaluator, ranked through the chain's compiled spec.
	ch, err := directSystem(t).NewChain(core.Materialized, rankedSQL, testThin, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Evaluator.Run(testSamples, nil); err != nil {
		t.Fatal(err)
	}
	want := core.SortTupleCIs(ch.Evaluator.Estimator().ResultsCI(1.96), ch.Spec)
	if len(want) != k {
		t.Fatalf("degenerate corpus: ranked reference has %d tuples, want %d", len(want), k)
	}

	check := func(path string, got [][2]any) {
		t.Helper()
		if len(got) != k {
			t.Fatalf("%s: %d tuples, want %d", path, len(got), k)
		}
		for i, g := range got {
			if g[0].(string) != want[i].Tuple[0].AsString() || g[1].(float64) != want[i].P {
				t.Errorf("%s rank %d: (%v, %v) vs direct (%v, %v)",
					path, i, g[0], g[1], want[i].Tuple[0].AsString(), want[i].P)
			}
		}
	}

	// Path 2: the factordb facade.
	fdb, err := factordb.Open(
		factordb.NER(factordb.NERConfig{Tokens: testTokens, Seed: testSeed, TrainSteps: testTrainSteps}),
		factordb.WithSteps(testThin), factordb.WithSeed(testSeed), factordb.WithSamples(testSamples))
	if err != nil {
		t.Fatal(err)
	}
	defer fdb.Close()
	frows, err := fdb.Query(ctx, rankedSQL)
	if err != nil {
		t.Fatal(err)
	}
	var facade [][2]any
	for frows.Next() {
		var s string
		if err := frows.Scan(&s); err != nil {
			t.Fatal(err)
		}
		facade = append(facade, [2]any{s, frows.Prob()})
	}
	frows.Close()
	check("facade", facade)

	// Path 3: database/sql.
	srows, err := openShared(t, nerDSN+"&mode=materialized").QueryContext(ctx, rankedSQL)
	if err != nil {
		t.Fatal(err)
	}
	defer srows.Close()
	var driver [][2]any
	for srows.Next() {
		var s string
		var p, lo, hi float64
		if err := srows.Scan(&s, &p, &lo, &hi); err != nil {
			t.Fatal(err)
		}
		driver = append(driver, [2]any{s, p})
	}
	if err := srows.Err(); err != nil {
		t.Fatal(err)
	}
	check("database/sql", driver)
}
