package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"factordb/internal/exp"
	"factordb/internal/relstore"
	"factordb/internal/store"
	"factordb/internal/world"
)

// corefEngine builds an engine over a small entity-resolution workload —
// cheap to stock (no training), so write tests get private engines whose
// worlds they may mutate freely.
func corefEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	sys, err := exp.BuildCorefOver(exp.CorefConfig{NumEntities: 4, MentionsPerEntity: 3, Seed: 11}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.StepsPerSample == 0 {
		cfg.StepsPerSample = 100
	}
	eng, err := New(sys.Prototype, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

// mentionString fetches the current STRING evidence of one mention
// through the query path; want -1 tuples skips the arity check.
func queryTuples(t *testing.T, eng *Engine, sql string) []answerTuple {
	t.Helper()
	res, err := eng.Query(context.Background(), sql, QueryOptions{Samples: 4, NoCache: true})
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	return tuples(res)
}

// TestExecMutatesEveryChainWorld drives the three DML verbs end-to-end
// through a multi-chain engine: evidence queries (marginal 1 tuples) must
// reflect each committed write on every chain, with no engine restart.
func TestExecMutatesEveryChainWorld(t *testing.T) {
	eng := corefEngine(t, Config{Chains: 2, Seed: 3})
	ctx := context.Background()

	pre := queryTuples(t, eng, `SELECT STRING FROM MENTION WHERE MENTION_ID = 0`)
	if len(pre) != 1 || pre[0].P != 1 {
		t.Fatalf("pre-write evidence answer = %+v", pre)
	}

	// UPDATE: the evidence correction must land on both chains.
	res, err := eng.Exec(ctx, `UPDATE MENTION SET STRING = 'CORRECTED' WHERE MENTION_ID = 0`, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 1 || res.Epoch != 1 || res.Chains != 2 {
		t.Fatalf("exec result = %+v", res)
	}
	post := queryTuples(t, eng, `SELECT STRING FROM MENTION WHERE MENTION_ID = 0`)
	if len(post) != 1 || post[0].Values[0] != "CORRECTED" || post[0].P != 1 {
		t.Fatalf("post-update answer = %+v", post)
	}

	// DELETE: the tuple disappears from the answer; the proposer keeps
	// walking, and the deleted mention leaves its cluster.
	if _, err := eng.Exec(ctx, `DELETE FROM MENTION WHERE MENTION_ID = 0`, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := queryTuples(t, eng, `SELECT STRING FROM MENTION WHERE MENTION_ID = 0`); len(got) != 0 {
		t.Fatalf("post-delete answer = %+v, want empty", got)
	}

	// INSERT: new evidence is queryable immediately.
	if _, err := eng.Exec(ctx, `INSERT INTO MENTION (MENTION_ID, STRING, CLUSTER) VALUES (99, 'NEW', 42)`, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	got := queryTuples(t, eng, `SELECT STRING FROM MENTION WHERE MENTION_ID = 99`)
	if len(got) != 1 || got[0].Values[0] != "NEW" {
		t.Fatalf("post-insert answer = %+v", got)
	}
	if eng.DataEpoch() != 3 {
		t.Errorf("data epoch = %d after 3 writes", eng.DataEpoch())
	}

	// Sampling still works after all three mutations: the hidden-field
	// query exercises the proposer against the mutated world.
	res2, err := eng.Query(ctx, exp.PairQuery, QueryOptions{Samples: 8, NoCache: true})
	if err != nil {
		t.Fatalf("pair query after writes: %v", err)
	}
	if res2.Samples < 8 {
		t.Errorf("pair query collected %d samples", res2.Samples)
	}
}

// TestWriteInvalidatesResultCache is the epoch-in-key regression test: a
// result cached before a write must never be served after it — including
// through whitespace/case variants that share the canonical plan's
// fingerprint — while fingerprint sharing itself keeps working within
// one data epoch.
func TestWriteInvalidatesResultCache(t *testing.T) {
	eng := corefEngine(t, Config{Chains: 1, Seed: 5})
	ctx := context.Background()
	const (
		sqlA = `SELECT STRING FROM MENTION WHERE MENTION_ID = 1`
		sqlB = "select   STRING\nfrom MENTION\nwhere MENTION_ID=1" // same plan, different spelling
		sqlC = `SELECT STRING FROM MENTION M WHERE M.MENTION_ID = 1`
	)
	q := func(sql string) *Result {
		t.Helper()
		res, err := eng.Query(ctx, sql, QueryOptions{Samples: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	r1 := q(sqlA)
	if r1.Cached {
		t.Fatal("first query hit an empty cache")
	}
	if r2 := q(sqlB); !r2.Cached {
		t.Error("pre-write spelling variant missed the shared cache entry")
	}

	if _, err := eng.Exec(ctx, `UPDATE MENTION SET STRING = 'POSTWRITE' WHERE MENTION_ID = 1`, ExecOptions{}); err != nil {
		t.Fatal(err)
	}

	// Every spelling of the query must now miss the stale entry and see
	// the post-write value.
	r3 := q(sqlB)
	if r3.Cached {
		t.Fatal("stale pre-write cache entry served after the write")
	}
	if r3.Len() != 1 || r3.Value(0, 0).String() != "POSTWRITE" {
		t.Fatalf("post-write answer = %+v", tuples(r3))
	}
	// Fingerprint sharing still works within the new epoch.
	r4 := q(sqlC)
	if !r4.Cached {
		t.Error("post-write spelling variant missed the fresh shared entry")
	}
	if r4.Len() != 1 || r4.Value(0, 0).String() != "POSTWRITE" {
		t.Fatalf("post-write cached answer = %+v", tuples(r4))
	}
}

// TestInFlightQueryCompletesAcrossWrite pins the re-equilibration
// contract for queries already running when a write lands: their
// estimators restart, so the answer they eventually return reflects the
// post-write world only — never a blend.
func TestInFlightQueryCompletesAcrossWrite(t *testing.T) {
	eng := corefEngine(t, Config{Chains: 2, Seed: 7})
	ctx := context.Background()

	type out struct {
		res *Result
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := eng.Query(ctx, `SELECT STRING FROM MENTION WHERE MENTION_ID = 2 AND CLUSTER >= 0`,
			QueryOptions{Samples: 64, NoCache: true})
		done <- out{res, err}
	}()
	// Land the write while the query is (very likely) in flight; the
	// assertion below holds either way — what is forbidden is a blended
	// answer.
	time.Sleep(2 * time.Millisecond)
	if _, err := eng.Exec(ctx, `UPDATE MENTION SET STRING = 'SHIFTED' WHERE MENTION_ID = 2`, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	o := <-done
	if o.err != nil {
		t.Fatal(o.err)
	}
	// The query reads the hidden CLUSTER, so it is sampled, but every
	// cluster id passes its test and STRING is evidence: within any
	// single world the answer is one tuple. A complete query must
	// therefore return
	// exactly one tuple at marginal 1 — the pre-write value if the query
	// finished before the commit, the post-write value otherwise. Two
	// tuples, or one below certainty, is a blend of the two worlds: the
	// exact outcome the collect-retry loop forbids.
	if !o.res.Partial {
		if o.res.Len() != 1 || o.res.Prob(0) != 1 {
			t.Errorf("blended in-flight answer across the write: %+v", tuples(o.res))
		}
	}
	// A fresh query sees the write with certainty.
	got := queryTuples(t, eng, `SELECT STRING FROM MENTION WHERE MENTION_ID = 2`)
	if len(got) != 1 || got[0].Values[0] != "SHIFTED" || got[0].P != 1 {
		t.Fatalf("post-write answer = %+v", got)
	}
}

// TestCertainReadAfterWrite pins the certain path beside the write path:
// both run on the prototype world, the write under the write lock and a
// certain query under its read side at the current data epoch, so one
// issued after Exec returns reads that write — and its cache entry is
// keyed under that epoch — while one racing the writes reads one
// committed world: one tuple at P = 1, never a half-applied batch. A
// sampled reader keeps views live meanwhile, so every write fans out to
// walking chains.
func TestCertainReadAfterWrite(t *testing.T) {
	eng := corefEngine(t, Config{Chains: 2, Seed: 31, StepsPerSample: 50})
	ctx := context.Background()
	const q = `SELECT STRING FROM MENTION WHERE MENTION_ID = 2`
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// A sampled query that writes keep tearing gives up with
	// ErrOverloaded, which asks its caller to retry; the sampled reader
	// does. The certain reader never samples, so every error fails it.
	read := func(sql string, sampled bool, check func(*Result)) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, err := eng.Query(ctx, sql, QueryOptions{Samples: 4, NoCache: true})
			if sampled && errors.Is(err, ErrOverloaded) {
				continue
			}
			if err != nil {
				t.Error(err)
				return
			}
			check(res)
		}
	}
	wg.Add(2)
	go read(exp.PairQuery, true, func(*Result) {})
	go read(q, false, func(res *Result) {
		if lo, hi := res.CI(0); res.Len() != 1 || res.Prob(0) != 1 || lo != 1 || hi != 1 {
			t.Errorf("certain answer racing writes = %+v", tuples(res))
		}
	})

	for i := range 8 {
		want := fmt.Sprintf("V%d", i)
		if _, err := eng.Exec(ctx, fmt.Sprintf(`UPDATE MENTION SET STRING = '%s' WHERE MENTION_ID = 2`, want), ExecOptions{}); err != nil {
			t.Fatal(err)
		}
		for _, cached := range []bool{false, true} {
			res, err := eng.Query(ctx, q, QueryOptions{Samples: 4})
			if err != nil {
				t.Fatal(err)
			}
			if res.Cached != cached || res.Len() != 1 || res.Value(0, 0).AsString() != want || res.Prob(0) != 1 || res.Samples != 4 {
				t.Fatalf("read %d after write %q: cached=%v %+v samples=%d, want cached=%v, %q at P=1 and 4 samples",
					i, want, res.Cached, tuples(res), res.Samples, cached, want)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// gateWAL holds its one Append until release closes, so a test can stop
// a write between its resolve on the prototype and its fan-out.
type gateWAL struct{ entered, release chan struct{} }

func (g gateWAL) Append(int64, []world.Op) error {
	close(g.entered)
	<-g.release
	return nil
}

// TestCutShortPassNeverBlends pins the blend rule for a pass that ends
// partial: a cancelled query whose chains hand off on different sides of
// a write merges only the handoffs of the newest write generation. Two
// gates force the interleaving: the WAL holds the write after its
// resolve on the prototype, and chain 0's mailbox queues the session's
// detach ahead of the write's fan-out, so chain 0 hands off its
// pre-write estimate while chain 1 has already absorbed the write and
// sampled the new world. The query reads
// the hidden CLUSTER, so it is sampled, but every cluster id passes its
// test: each world's answer is one tuple at marginal 1, and two tuples
// is a blend.
func TestCutShortPassNeverBlends(t *testing.T) {
	wal := gateWAL{entered: make(chan struct{}), release: make(chan struct{})}
	eng := corefEngine(t, Config{Chains: 2, Seed: 7, WAL: wal})
	c0, c1 := eng.chains[0], eng.chains[1]
	eventually := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	type out struct {
		res *Result
		err error
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	queried := make(chan out, 1)
	go func() {
		res, err := eng.Query(ctx, `SELECT STRING FROM MENTION WHERE MENTION_ID = 2 AND CLUSTER >= 0`,
			QueryOptions{Samples: 1 << 30, NoCache: true})
		queried <- out{res, err}
	}()
	eventually("the query's view on both chains", func() bool { return eng.sharedViews() == 2 })

	written := make(chan error, 1)
	go func() {
		_, err := eng.Exec(context.Background(), `UPDATE MENTION SET STRING = 'SHIFTED' WHERE MENTION_ID = 2`, ExecOptions{})
		written <- err
	}()
	<-wal.entered // resolved on the prototype, not yet applied or fanned out

	entered, release := make(chan struct{}), make(chan struct{})
	gate := callResult(context.Background(), c0, func() error {
		close(entered)
		<-release
		return nil
	})
	<-entered
	cancel()
	eventually("the session's detach blocked on gated chain 0", func() bool {
		buf := make([]byte, 1<<20)
		return strings.Contains(string(buf[:runtime.Stack(buf, true)]), "(*registration).detach")
	})

	// The fan-out lands on chain 1 at once and queues behind the detach
	// on chain 0.
	close(wal.release)
	var post int64
	eventually("chain 1 sampling the written world", func() bool {
		if c1.writeGen.Load() != 1 {
			return false
		}
		if err := c1.call(context.Background(), func() error {
			for _, pv := range c1.reg.byFP {
				post = pv.est.Samples()
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return post >= 2
	})
	close(release)
	if err := await(t, gate); err != nil {
		t.Fatal(err)
	}
	if err := <-written; err != nil {
		t.Fatal(err)
	}

	o := <-queried
	if o.err != nil {
		t.Fatalf("cut-short query = %v, want a partial answer from chain 1's %d post-write samples", o.err, post)
	}
	if !o.res.Partial {
		t.Error("cancelled query not flagged partial")
	}
	if o.res.Len() != 1 || o.res.Value(0, 0).String() != "SHIFTED" || o.res.Prob(0) != 1 {
		t.Errorf("cut-short answer blends the worlds before and after the write: %+v", tuples(o.res))
	}
}

// TestWriteRespectsAdmission: writes pass the same admission control as
// queries — with the slot held and the queue full, an extra Exec is shed
// with ErrOverloaded instead of piling up.
func TestWriteRespectsAdmission(t *testing.T) {
	eng := corefEngine(t, Config{Chains: 1, Seed: 9, MaxConcurrentQueries: 1, MaxQueuedQueries: 1})
	ctx := context.Background()

	if err := eng.admit.acquire(ctx); err != nil { // occupy the only slot
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() {
		_, err := eng.Exec(ctx, `UPDATE MENTION SET STRING = 'Q' WHERE MENTION_ID = 3`, ExecOptions{})
		queued <- err
	}()
	// Wait for the goroutine to take the single queue spot.
	for i := 0; eng.admit.waiting.Load() == 0; i++ {
		if i > 1000 {
			t.Fatal("queued Exec never reached the admission queue")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := eng.Exec(ctx, `DELETE FROM MENTION WHERE MENTION_ID = 3`, ExecOptions{}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overloaded Exec = %v, want ErrOverloaded", err)
	}
	eng.admit.release()
	if err := <-queued; err != nil {
		t.Fatalf("queued Exec = %v", err)
	}
}

// TestExecBadStatements covers the client-error paths of the write
// coordinator: parse errors, resolve errors and read/write API misuse
// all surface as ErrBadQuery without touching any chain's world.
func TestExecBadStatements(t *testing.T) {
	eng := corefEngine(t, Config{Chains: 1, Seed: 13})
	ctx := context.Background()
	cases := []struct {
		name, sql, detail string
	}{
		{"parse error", `UPDATE MENTION SET`, "expected identifier"},
		{"select via exec", `SELECT STRING FROM MENTION`, "use Query"},
		{"unknown relation", `DELETE FROM NOPE`, `unknown relation "NOPE"`},
		{"unknown column", `UPDATE MENTION SET NOPE = 1`, `no column "NOPE"`},
		{"type mismatch", `UPDATE MENTION SET STRING = 7`, "takes STRING"},
	}
	for _, c := range cases {
		_, err := eng.Exec(ctx, c.sql, ExecOptions{})
		if !errors.Is(err, ErrBadQuery) {
			t.Errorf("%s: error %v, want ErrBadQuery", c.name, err)
			continue
		}
		if !strings.Contains(err.Error(), c.detail) {
			t.Errorf("%s: error %q lacks %q", c.name, err, c.detail)
		}
	}
	if eng.DataEpoch() != 0 {
		t.Errorf("bad statements bumped the data epoch to %d", eng.DataEpoch())
	}
	// A mutation matching no rows succeeds but commits nothing: the data
	// epoch must not move, so the result cache survives intact.
	res, err := eng.Exec(ctx, `DELETE FROM MENTION WHERE MENTION_ID = 999`, ExecOptions{})
	if err != nil || res.RowsAffected != 0 || eng.DataEpoch() != 0 {
		t.Errorf("no-match DELETE: err=%v rows=%d epoch=%d, want a zero-row no-op at epoch 0",
			err, res.RowsAffected, eng.DataEpoch())
	}
}

// fsyncStubWAL is a WALSink reporting a fixed fsync share of its last
// Append — enough to make a traced write produce the wal_append and
// fsync spans without a real disk. The brief sleep guarantees the
// wal_append span is wider than the fsync share it must contain.
type fsyncStubWAL struct {
	appends int
}

func (w *fsyncStubWAL) Append(epoch int64, ops []world.Op) error {
	w.appends++
	time.Sleep(200 * time.Microsecond)
	return nil
}

func (w *fsyncStubWAL) LastFsyncNS() int64 { return 50_000 }

// TestExecTraceSpans pins the write-trace contract: a traced Exec
// returns a contiguous span timeline covering the whole write — compile
// through cache_invalidate, with the fsync share carved out of
// wal_append — that tiles the wall time exactly and lands in the debug
// ring. Untraced writes stay dark, and a no-match write traces as a
// noop that never reaches the fan-out.
func TestExecTraceSpans(t *testing.T) {
	wal := &fsyncStubWAL{}
	eng := corefEngine(t, Config{Chains: 2, Seed: 31, WAL: wal})
	ctx := context.Background()
	wantID := strings.Repeat("ab", 16)
	res, err := eng.Exec(ctx,
		`UPDATE MENTION SET STRING = 'TRACED' WHERE MENTION_ID = 1`,
		ExecOptions{Trace: true, TraceID: wantID})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if tr == nil {
		t.Fatal("traced exec returned no trace")
	}
	if tr.Kind != "exec" || tr.Outcome != "ok" {
		t.Fatalf("trace kind=%q outcome=%q, want exec/ok", tr.Kind, tr.Outcome)
	}
	if tr.TraceID != wantID {
		t.Fatalf("trace id %q, want the propagated %q", tr.TraceID, wantID)
	}
	want := []string{"compile", "admission_wait", "resolve", "wal_append", "fsync",
		"fanout", "burn_in", "delta_fold", "republish", "cache_invalidate"}
	if len(tr.Spans) != len(want) {
		t.Fatalf("trace has %d spans (%+v), want %v", len(tr.Spans), tr.Spans, want)
	}
	var sum int64
	for i, s := range tr.Spans {
		if s.Name != want[i] {
			t.Errorf("span %d = %q, want %q", i, s.Name, want[i])
		}
		if s.DurNS < 0 {
			t.Errorf("span %q has negative duration %d", s.Name, s.DurNS)
		}
		if i > 0 {
			prev := tr.Spans[i-1]
			if s.StartNS != prev.StartNS+prev.DurNS {
				t.Fatalf("span %q starts at %d, previous ended at %d — the write timeline has a gap",
					s.Name, s.StartNS, prev.StartNS+prev.DurNS)
			}
		}
		sum += s.DurNS
	}
	if got := sum + tr.Spans[0].StartNS; got != tr.WallNS {
		t.Fatalf("spans tile %dns of %dns wall time", got, tr.WallNS)
	}
	// splitTail carved at least the reported fsync share out of wal_append
	// (the span also absorbs the instants until the fan-out opens).
	if fs := tr.Spans[4]; fs.DurNS < wal.LastFsyncNS() {
		t.Errorf("fsync span %dns, want at least the reported %dns", fs.DurNS, wal.LastFsyncNS())
	}
	if wal.appends != 1 {
		t.Fatalf("WAL saw %d appends, want 1", wal.appends)
	}
	if traces := eng.Traces(); len(traces) == 0 || traces[0].ID != tr.ID {
		t.Fatal("debug ring does not lead with the traced write")
	}

	// Untraced write: no trace on the result, nothing new in the ring.
	res2, err := eng.Exec(ctx, `UPDATE MENTION SET STRING = 'DARK' WHERE MENTION_ID = 2`, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Trace != nil {
		t.Fatalf("untraced exec carries a trace: %+v", res2.Trace)
	}
	if n := len(eng.Traces()); n != 1 {
		t.Fatalf("debug ring holds %d traces after an untraced write, want 1", n)
	}

	// No-match mutation: outcome noop, the WAL untouched, no fan-out spans.
	res3, err := eng.Exec(ctx, `DELETE FROM MENTION WHERE MENTION_ID = 999`,
		ExecOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Trace == nil || res3.Trace.Outcome != "noop" {
		t.Fatalf("no-match trace = %+v, want outcome noop", res3.Trace)
	}
	if last := res3.Trace.Spans[len(res3.Trace.Spans)-1]; last.Name != "resolve" {
		t.Errorf("noop trace ends with span %q, want resolve (no fan-out happened)", last.Name)
	}
	if wal.appends != 2 { // the two matching writes above, nothing from the no-op
		t.Errorf("no-match mutation reached the WAL (%d appends, want 2)", wal.appends)
	}
}

// TestExecQueryCloseRace interleaves writers, readers and shutdown; run
// under -race it is the engine's write-path memory-safety check. Every
// call must return either a clean result or a shutdown/overload error —
// never a panic, deadlock or torn state.
func TestExecQueryCloseRace(t *testing.T) {
	eng := corefEngine(t, Config{Chains: 2, Seed: 21, StepsPerSample: 50})
	ctx := context.Background()

	var wg sync.WaitGroup
	fail := func(kind string, err error) {
		if err == nil || errors.Is(err, ErrClosed) || errors.Is(err, ErrOverloaded) {
			return
		}
		t.Errorf("%s returned %v", kind, err)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				_, err := eng.Exec(ctx, fmt.Sprintf(
					`UPDATE MENTION SET STRING = 'W%d_%d' WHERE MENTION_ID = %d`, w, i, w), ExecOptions{})
				fail("Exec", err)
			}
		}(w)
	}
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				_, err := eng.Query(ctx, exp.PairQuery, QueryOptions{Samples: 4, NoCache: true})
				fail("Query", err)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(10 * time.Millisecond)
		eng.Close()
	}()
	wg.Wait()

	if _, err := eng.Exec(ctx, `DELETE FROM MENTION`, ExecOptions{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Exec after Close = %v, want ErrClosed", err)
	}
}

// TestPrototypeTakesEveryWrite pins the engine's one evidence world: in
// every mode a write resolves and lands on the prototype, which a durable
// store keeps by reference and checkpoints. After each UPDATE, INSERT and
// DELETE, on NER and on coref, every chain's evidence equals the
// prototype's, the store's world is the prototype itself, and a
// checkpoint taken through the engine recovers the prototype byte for
// byte.
func TestPrototypeTakesEveryWrite(t *testing.T) {
	models := []struct {
		name   string
		build  func() (*world.Prototype, error)
		writes []string
	}{
		{"ner", func() (*world.Prototype, error) {
			sys, err := exp.BuildNER(exp.Config{NumTokens: 2000, Seed: 3, UseSkip: true})
			if err != nil {
				return nil, err
			}
			return sys.Prototype, nil
		}, []string{
			`UPDATE TOKEN SET STRING = 'Boston' WHERE TOK_ID = 5`,
			`INSERT INTO TOKEN (TOK_ID, DOC_ID, STRING, LABEL, TRUTH) VALUES (10000000, 9000000, 'ins', 'O', 'O')`,
			`DELETE FROM TOKEN WHERE TOK_ID = 7`,
		}},
		{"coref", func() (*world.Prototype, error) {
			sys, err := exp.BuildCorefOver(exp.CorefConfig{NumEntities: 4, MentionsPerEntity: 3, Seed: 11}, nil)
			if err != nil {
				return nil, err
			}
			return sys.Prototype, nil
		}, []string{
			`UPDATE MENTION SET STRING = 'CORRECTED' WHERE MENTION_ID = 0`,
			`INSERT INTO MENTION (MENTION_ID, STRING, CLUSTER) VALUES (99, 'NEW', 42)`,
			`DELETE FROM MENTION WHERE MENTION_ID = 1`,
		}},
	}
	ctx := context.Background()
	for _, m := range models {
		for _, mode := range []Mode{Pooled, PrivateNaive, PrivateMaterialized} {
			t.Run(m.name+"/"+mode.String(), func(t *testing.T) {
				src, err := m.build()
				if err != nil {
					t.Fatal(err)
				}
				dir := t.TempDir()
				st, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncNever, CheckpointOps: -1, CheckpointBytes: -1})
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				if err := st.Seed(src.WorldDB(), 0); err != nil {
					t.Fatal(err)
				}
				eng, err := New(src, Config{Mode: mode, Chains: 2, StepsPerSample: 50, Seed: 1, WAL: st})
				if err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
				proto := src.WorldDB()
				for _, sql := range m.writes {
					if _, err := eng.Exec(ctx, sql, ExecOptions{}); err != nil {
						t.Fatalf("%s: %v", sql, err)
					}
					want := evidence(proto)
					for _, c := range eng.chains {
						var got string
						if err := c.call(ctx, func() error { got = evidence(c.log.DB()); return nil }); err != nil {
							t.Fatal(err)
						}
						if got != want {
							t.Errorf("after %s: chain %d's evidence differs from the prototype's", sql, c.id)
						}
					}
					if st.World() != proto {
						t.Fatalf("after %s: the store keeps a world other than the prototype", sql)
					}
					if err := eng.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(reopenedDump(t, dir), dumpOf(t, proto)) {
						t.Errorf("after %s: the checkpoint recovers a world other than the prototype", sql)
					}
				}
			})
		}
	}
}

// evidence renders every live row's evidence columns — all but the
// hidden ones — with its row id.
func evidence(db *relstore.DB) string {
	var b strings.Builder
	for _, name := range db.Names() {
		rel, _ := db.Relation(name)
		rel.Scan(func(id relstore.RowID, tup relstore.Tuple) bool {
			fmt.Fprintf(&b, "%s %d", name, id)
			for i, v := range tup {
				if !rel.Schema().Hidden(i) {
					fmt.Fprintf(&b, " %s", v)
				}
			}
			b.WriteByte('\n')
			return true
		})
	}
	return b.String()
}

func dumpOf(t *testing.T, db *relstore.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reopenedDump recovers a copy of the data directory dir, which a live
// store holds open, and dumps the world it recovers.
func reopenedDump(t *testing.T, dir string) []byte {
	t.Helper()
	cp := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cp, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r, err := store.Open(store.Options{Dir: cp})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	return dumpOf(t, r.World())
}

// TestServedExplainAnalyzeCertain: in served mode EXPLAIN ANALYZE runs a
// certain plan, which reads no hidden column, once, on the prototype the
// query itself is answered from, and says so; a plan that reads the
// hidden column still runs once on every chain.
func TestServedExplainAnalyzeCertain(t *testing.T) {
	eng := corefEngine(t, Config{Chains: 2, Seed: 5})
	for sql, wants := range map[string][]string{
		`SELECT STRING FROM MENTION WHERE MENTION_ID = 1`: {"analyze: runs=1 ", "analyzed: the prototype world"},
		exp.PairQuery: {"analyze: runs=2 ", "analyzed chains: 2"},
	} {
		res, err := eng.Query(context.Background(), "EXPLAIN ANALYZE "+sql, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		lines := make([]string, res.Len())
		for i := range lines {
			lines[i] = res.Value(i, 0).AsString()
		}
		for _, want := range wants {
			if out := strings.Join(lines, "\n"); !strings.Contains(out, want) {
				t.Errorf("EXPLAIN ANALYZE %s lacks %q:\n%s", sql, want, out)
			}
		}
	}
}

// TestLocalExplainAnalyzeRacesExec: on a local engine, EXPLAIN ANALYZE,
// a certain read, a sampled read and UPDATEs run concurrently. With no
// chain, an analysis runs on the prototype under the write lock's read
// side, as the certain read does, so under -race it is clean, and every
// analysis and every certain answer counts one committed world's rows:
// each write sets the STRING of the same six mentions, alternately to
// 'A' and 'B', so the mentions named 'A' number six or none, never a
// part of a batch.
func TestLocalExplainAnalyzeRacesExec(t *testing.T) {
	eng := corefEngine(t, Config{Mode: PrivateMaterialized, Seed: 3, StepsPerSample: 20})
	ctx := context.Background()
	set := func(s string) {
		t.Helper()
		res, err := eng.Exec(ctx, fmt.Sprintf(`UPDATE MENTION SET STRING = '%s' WHERE MENTION_ID < 6`, s), ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.RowsAffected != 6 {
			t.Fatalf("UPDATE to %q touched %d mentions, want 6", s, res.RowsAffected)
		}
	}
	set("A")
	const named = `SELECT MENTION_ID FROM MENTION WHERE STRING = 'A'`
	committed := func(rows int) bool { return rows == 0 || rows == 6 }
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads [3]atomic.Int64
	read := func(r int, check func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := check(); err != nil {
					t.Error(err)
					return
				}
				reads[r].Add(1)
			}
		}()
	}
	read(0, func() error {
		res, err := eng.Query(ctx, "EXPLAIN ANALYZE "+named, QueryOptions{})
		if err != nil {
			return err
		}
		lines := make([]string, res.Len())
		for i := range lines {
			lines[i] = res.Value(i, 0).AsString()
		}
		var rows int
		if _, err := fmt.Sscanf(lines[0][strings.Index(lines[0], "actual rows="):], "actual rows=%d", &rows); err != nil {
			return fmt.Errorf("root line %q: %v", lines[0], err)
		}
		if !committed(rows) || !strings.Contains(strings.Join(lines, "\n"), "analyzed: the prototype world") {
			return fmt.Errorf("analysis racing writes counts %d mentions named 'A', want 0 or 6:\n%s", rows, strings.Join(lines, "\n"))
		}
		return nil
	})
	read(1, func() error {
		res, err := eng.Query(ctx, named, QueryOptions{Samples: 2})
		if err == nil && !committed(res.Len()) {
			err = fmt.Errorf("certain answer racing writes has %d mentions named 'A', want 0 or 6", res.Len())
		}
		return err
	})
	read(2, func() error {
		_, err := eng.Query(ctx, exp.PairQuery, QueryOptions{Samples: 2})
		return err
	})
	// Write at least 40 times, and on until every reader has run 20
	// times across the writes.
	busy := func() bool {
		for i := range reads {
			if reads[i].Load() < 20 {
				return true
			}
		}
		return false
	}
	for i := 0; (i < 40 || busy()) && !t.Failed(); i++ {
		set([2]string{"B", "A"}[i%2])
	}
	close(stop)
	wg.Wait()
}
