package factordb

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"factordb/internal/relstore"
)

// Durability tests retrain their system on every Open, so they use a
// corpus an order of magnitude smaller than the shared facade fixture.
const (
	durTokens = 400
	durTrain  = 500
	durSeed   = 11
)

func durableOpts(dir string, extra ...Option) []Option {
	return append([]Option{
		WithDataDir(dir),
		WithFsync(FsyncNever), // tests exercise clean closes, not OS crashes
		WithSteps(50),
	}, extra...)
}

func durableNER() Model {
	return NER(NERConfig{Tokens: durTokens, Seed: durSeed, TrainSteps: durTrain})
}

// worldBytes snapshots the DB's prototype world for byte-identity checks.
func worldBytes(t *testing.T, db *DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.sys.WorldDB().Dump(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func execN(t *testing.T, db *DB, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		sql := fmt.Sprintf("UPDATE TOKEN SET STRING = 'durable-%d' WHERE TOK_ID = %d", i, i)
		res, err := db.Exec(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		if res.RowsAffected == 0 {
			t.Fatalf("write %d matched no rows", i)
		}
	}
}

// TestDurableReopenRestoresWorld is the facade-level acceptance test:
// open with a data dir, write N ops, close, reopen — the write epoch
// survives and the prototype world is byte-identical to the one at close.
func TestDurableReopenRestoresWorld(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(durableNER(), durableOpts(dir)...)
	if err != nil {
		t.Fatal(err)
	}
	execN(t, db, 3)
	if got := db.WriteEpoch(); got != 3 {
		t.Fatalf("write epoch %d after 3 writes, want 3", got)
	}
	want := worldBytes(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(durableNER(), durableOpts(dir)...)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.WriteEpoch(); got != 3 {
		t.Fatalf("recovered write epoch %d, want 3", got)
	}
	if !bytes.Equal(worldBytes(t, re), want) {
		t.Fatal("recovered prototype world differs from the world at close")
	}
	d := re.Durability()
	if d == nil {
		t.Fatal("Durability() = nil with a data dir")
	}
	if d.RecoveredEpoch != 3 || d.ReplayedRecords != 3 || d.TornTail {
		t.Fatalf("durability %+v, want recovered epoch 3 from 3 clean records", d)
	}
	// Writes keep working after recovery and extend the same epoch line.
	execN(t, re, 1)
	if got := re.WriteEpoch(); got != 4 {
		t.Fatalf("post-recovery write epoch %d, want 4", got)
	}
}

// TestOpenRefusesSnap1Directory: a data directory of the retired gob
// snapshot format fails Open with ErrRecovery instead of serving another
// world.
func TestOpenRefusesSnap1Directory(t *testing.T) {
	src := filepath.Join("internal", "store", "testdata", "snap1")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db, err := Open(durableNER(), durableOpts(dir)...)
	if err == nil {
		db.Close()
		t.Fatal("Open served a snap1 directory")
	}
	if !errors.Is(err, ErrRecovery) || !strings.Contains(err.Error(), "snap1") {
		t.Fatalf("Open = %v, want ErrRecovery naming snap1", err)
	}
}

// TestOpenRefusesModelThatDoesNotFit: a directory seeded under a
// 400-token corpus holds fewer TOKEN rows than a 1 200-token model
// addresses, so reopening it under that model fails Open with
// ErrRecovery, naming the directory and the model, in every mode. The
// directory is left as it was. A config whose model fits the rows (a
// smaller or reseeded corpus) is still served undetected.
func TestOpenRefusesModelThatDoesNotFit(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(durableNER(), durableOpts(dir)...)
	if err != nil {
		t.Fatal(err)
	}
	execN(t, db, 1)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	bigger := NER(NERConfig{Tokens: 3 * durTokens, Seed: durSeed, TrainSteps: durTrain})
	for _, mode := range []Mode{ModeNaive, ModeMaterialized, ModeServed} {
		db, err := Open(bigger, durableOpts(dir, WithMode(mode))...)
		if err == nil {
			db.Close()
			t.Fatalf("%s: Open served a directory the model does not fit", mode)
		}
		if !errors.Is(err, ErrRecovery) || !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), "ner") {
			t.Fatalf("%s: Open = %v, want ErrRecovery naming %s and the ner model", mode, err, dir)
		}
	}
	re, err := Open(durableNER(), durableOpts(dir)...)
	if err != nil {
		t.Fatalf("the seeding config no longer opens the directory: %v", err)
	}
	defer re.Close()
	if got := re.WriteEpoch(); got != 1 {
		t.Fatalf("recovered write epoch %d, want 1", got)
	}
}

// TestDurableReopenServed runs the same contract through the serving
// engine: the WAL sees the fan-out batches and the recovered epoch seeds
// the engine's data epoch.
func TestDurableReopenServed(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(dir, WithMode(ModeServed), WithChains(2))
	db, err := Open(durableNER(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	execN(t, db, 2)
	if got := db.WriteEpoch(); got != 2 {
		t.Fatalf("served write epoch %d, want 2", got)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(durableNER(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.WriteEpoch(); got != 2 {
		t.Fatalf("recovered served write epoch %d, want 2", got)
	}
	// The next write continues the epoch sequence the log recorded.
	execN(t, re, 1)
	if got := re.WriteEpoch(); got != 3 {
		t.Fatalf("post-recovery served epoch %d, want 3", got)
	}
}

// TestDurableCheckpointTailOnly: an explicit checkpoint truncates the
// replayed prefix, so the next recovery replays only post-checkpoint
// records.
func TestDurableCheckpointTailOnly(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(durableNER(), durableOpts(dir)...)
	if err != nil {
		t.Fatal(err)
	}
	execN(t, db, 3)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	execN(t, db, 2)
	want := worldBytes(t, db)
	db.Close()

	re, err := Open(durableNER(), durableOpts(dir)...)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	d := re.Durability()
	if d.RecoveredEpoch != 5 || d.ReplayedRecords != 2 || d.LastCheckpointEpoch != 3 {
		t.Fatalf("durability %+v, want epoch 5 = checkpoint 3 + 2 replayed tail records", d)
	}
	if !bytes.Equal(worldBytes(t, re), want) {
		t.Fatal("world after checkpoint + tail replay differs")
	}
}

// TestDurabilityEndpointFields pins the durability block's JSON schema
// on /healthz and /statusz.
func TestDurabilityEndpointFields(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(durableNER(), durableOpts(dir)...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	execN(t, db, 1)
	srv := httptest.NewServer(db.Handler())
	defer srv.Close()

	for _, path := range []string{"/healthz", "/statusz"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var raw map[string]json.RawMessage
		err = json.NewDecoder(resp.Body).Decode(&raw)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		durRaw, ok := raw["durability"]
		if !ok {
			t.Fatalf("%s has no durability block (have %v)", path, raw)
		}
		var dur map[string]json.RawMessage
		if err := json.Unmarshal(durRaw, &dur); err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{
			"dir", "fsync", "wal_bytes", "wal_records",
			"last_checkpoint_epoch", "snapshot_bytes", "checkpoints",
			"recovered_epoch", "replayed_records",
		} {
			if _, ok := dur[key]; !ok {
				t.Errorf("%s durability is missing %q (have %v)", path, key, dur)
			}
		}
		var fsync string
		if err := json.Unmarshal(dur["fsync"], &fsync); err != nil {
			t.Fatal(err)
		}
		if fsync != "never" {
			t.Errorf("%s fsync = %q, want %q", path, fsync, "never")
		}
	}

	// Without a data dir the block is absent, not empty.
	plain, err := Open(Coref(CorefConfig{}), WithSteps(50))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if plain.Durability() != nil {
		t.Error("Durability() non-nil without a data dir")
	}
}

// TestCorefDurableReopen: the entity-resolution workload keeps the same
// durable contract as NER — a local write survives close and reopen with
// its epoch, its evidence and a byte-identical prototype world.
func TestCorefDurableReopen(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	db, err := Open(Coref(CorefConfig{}), durableOpts(dir)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(ctx, `UPDATE MENTION SET STRING = 'REVISED' WHERE MENTION_ID = 2`)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 1 {
		t.Fatalf("exec result %+v, want 1 row affected", res)
	}
	want := worldBytes(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Coref(CorefConfig{}), durableOpts(dir)...)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.WriteEpoch(); got != 1 {
		t.Fatalf("recovered write epoch %d, want 1", got)
	}
	rows, err := re.Query(ctx, `SELECT STRING FROM MENTION WHERE MENTION_ID = 2`, Samples(4))
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var s string
	if !rows.Next() {
		t.Fatal("recovered evidence query returned no tuples")
	}
	if err := rows.Scan(&s); err != nil {
		t.Fatal(err)
	}
	if s != "REVISED" || rows.Prob() != 1 {
		t.Errorf("recovered evidence (%q, %v), want (REVISED, 1)", s, rows.Prob())
	}
	if !bytes.Equal(worldBytes(t, re), want) {
		t.Fatal("recovered prototype world differs from the world at close")
	}
}

// TestCorefReopenServesTheDirectory: a coref directory is served from
// its own rows, whatever the config says. Reopened under a config that
// would generate 12 mentions, not the 24 it was seeded with, it answers
// from the recovered MENTION rows — the same count and text, a written
// row included — and samples every one of them: PairQuery answers
// exactly as a reopen under the seeding config does on the same seed.
func TestCorefReopenServesTheDirectory(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	opts := durableOpts(dir, WithMode(ModeMaterialized), WithSeed(11))
	db, err := Open(Coref(CorefConfig{}), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(ctx, `UPDATE MENTION SET STRING = 'REVISED' WHERE MENTION_ID = 20`); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	type served struct {
		describe string
		count    int64
		text     map[int64]string
		pairs    map[string]float64
	}
	reopen := func(cfg CorefConfig) served {
		t.Helper()
		re, err := Open(Coref(cfg), opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		out := served{describe: re.Describe(), text: map[int64]string{}}
		rows, err := re.Query(ctx, `SELECT COUNT(*) FROM MENTION`, Samples(1))
		if err != nil {
			t.Fatal(err)
		}
		for rows.Next() {
			if err := rows.Scan(&out.count); err != nil {
				t.Fatal(err)
			}
		}
		rows.Close()
		rows, err = re.Query(ctx, `SELECT MENTION_ID, STRING FROM MENTION`, Samples(1))
		if err != nil {
			t.Fatal(err)
		}
		for rows.Next() {
			var id int64
			var s string
			if err := rows.Scan(&id, &s); err != nil {
				t.Fatal(err)
			}
			out.text[id] = s
		}
		rows.Close()
		out.pairs = pairAnswer(t, re, 100)
		return out
	}
	seeded, other := reopen(CorefConfig{}), reopen(CorefConfig{Entities: 3})
	if other.count != 24 || seeded.count != 24 {
		t.Fatalf("SELECT COUNT(*) FROM MENTION = %d under {Entities: 3}, %d under {}; want 24", other.count, seeded.count)
	}
	if !maps.Equal(other.text, seeded.text) || other.text[20] != "REVISED" {
		t.Fatalf("recovered text under {Entities: 3} %v, want %v with row 20 REVISED", other.text, seeded.text)
	}
	if !strings.Contains(other.describe, "24 mentions") {
		t.Errorf("Describe %q, want 24 mentions", other.describe)
	}
	if !maps.Equal(other.pairs, seeded.pairs) {
		t.Errorf("PairQuery under {Entities: 3} (%d tuples) differs from under {} (%d tuples)", len(other.pairs), len(seeded.pairs))
	}
}

// TestReopenAfterRenumbering: a checkpoint re-codes STRING in first-use
// order over the rows it keeps, so after one write renames the only row
// of a rare string and another deletes the only row of a second one, the
// reopened world's codes differ from the ones the model was indexed by.
// The model indexes a fresh load of its corpus, not the recovered codes,
// so Query 1 and Query 4 still answer exactly as a fresh open that
// applied the same writes in memory. A third write inserts a row labelled
// B-ORG, so LABEL reloads as [O B-ORG] and its codes are not in Label
// order: the chains read labels through their code table.
func TestReopenAfterRenumbering(t *testing.T) {
	model := NER(NERConfig{Tokens: 2000, Seed: durSeed})
	opts := []Option{WithMode(ModeMaterialized), WithSeed(5), WithSteps(50)}
	ref, err := Open(model, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	refRel, err := ref.sys.WorldDB().Relation("TOKEN")
	if err != nil {
		t.Fatal(err)
	}
	// The rows of the first two strings that only one row holds.
	uses := map[string]int{}
	refRel.Scan(func(_ relstore.RowID, tu relstore.Tuple) bool { uses[tu[2].AsString()]++; return true })
	var rare []int64
	refRel.Scan(func(_ relstore.RowID, tu relstore.Tuple) bool {
		if uses[tu[2].AsString()] == 1 {
			rare = append(rare, tu[0].AsInt())
		}
		return len(rare) < 2
	})
	if len(rare) < 2 {
		t.Fatalf("the corpus has %d strings of one row; the check needs 2", len(rare))
	}
	writes := []string{
		fmt.Sprintf("UPDATE TOKEN SET STRING = 'Renamed' WHERE TOK_ID = %d", rare[0]),
		fmt.Sprintf("DELETE FROM TOKEN WHERE TOK_ID = %d", rare[1]),
		"INSERT INTO TOKEN (TOK_ID, DOC_ID, STRING, LABEL, TRUTH) VALUES (10000000, 9000000, 'Inserted', 'B-ORG', 'O')",
	}
	dir := t.TempDir()
	db, err := Open(model, durableOpts(dir, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range writes {
		for _, d := range []*DB{ref, db} {
			if res, err := d.Exec(context.Background(), w); err != nil || res.RowsAffected != 1 {
				t.Fatalf("%s: %v, %+v", w, err, res)
			}
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(model, durableOpts(dir, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()

	reRel, err := re.sys.WorldDB().Relation("TOKEN")
	if err != nil {
		t.Fatal(err)
	}
	refCodes, refTable, _ := refRel.StringCodes(2)
	reCodes, reTable, _ := reRel.StringCodes(2)
	moved := 0
	for row := range refCodes.Len() {
		if !refRel.Has(relstore.RowID(row)) {
			continue
		}
		ref, re := refCodes.At(row), reCodes.At(row)
		if refTable[ref] != reTable[re] {
			t.Fatalf("row %d reads %q reopened, %q in memory", row, reTable[re], refTable[ref])
		}
		if ref != re {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("the checkpoint renumbered no STRING code; the check proves nothing")
	}
	if _, labels, _ := reRel.StringCodes(3); len(labels) < 2 || labels[1] != "B-ORG" {
		t.Fatalf("the reopened LABEL codes %q; the check wants B-ORG at code 1", labels)
	}
	for _, q := range []string{Query1, Query4} {
		want, _ := hiddenAnswer(t, ref, q, Samples(40), NoCache())
		got, _ := hiddenAnswer(t, re, q, Samples(40), NoCache())
		if len(want) == 0 || !maps.Equal(got, want) {
			t.Errorf("%s\nreopened: %v\nin memory: %v", q, got, want)
		}
	}
	t.Logf("the checkpoint re-coded %d of %d rows", moved, reRel.Len())
}

// TestCheckpointRacesExec: on a durable served database, writes, certain
// and sampled reads and explicit checkpoints run concurrently. The engine
// takes each checkpoint between writes, so it never snapshots a
// half-applied batch, and a reopen recovers every commit: its write
// epoch is the number of commits, and its world is the one at close.
func TestCheckpointRacesExec(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(dir, WithMode(ModeServed), WithChains(2))
	db, err := Open(durableNER(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	const writers, writes = 2, 8
	var commits atomic.Int64
	var writing, others sync.WaitGroup
	stop := make(chan struct{})
	for w := range writers {
		writing.Add(1)
		go func() {
			defer writing.Done()
			for i := range writes {
				res, err := db.Exec(ctx, fmt.Sprintf("UPDATE TOKEN SET STRING = 'race-%d-%d' WHERE TOK_ID = %d", w, i, w+1))
				if err != nil {
					t.Error(err)
					return
				}
				commits.Add(res.RowsAffected)
			}
		}()
	}
	// A sampled query that writes keep tearing may give up with
	// ErrOverloaded, which asks its caller to retry; nothing else may
	// fail.
	for _, sql := range []string{
		`SELECT STRING FROM TOKEN WHERE TOK_ID = 1`,
		`SELECT STRING FROM TOKEN WHERE TOK_ID = 2 AND LABEL <> 'X'`,
	} {
		others.Add(1)
		go func() {
			defer others.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rows, err := db.Query(ctx, sql, Samples(2), NoCache())
				if errors.Is(err, ErrOverloaded) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				rows.Close()
			}
		}()
	}
	others.Add(1)
	go func() {
		defer others.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	writing.Wait()
	close(stop)
	others.Wait()
	if t.Failed() {
		return
	}
	n := commits.Load()
	if n != writers*writes || db.WriteEpoch() != n {
		t.Fatalf("%d commits at write epoch %d, want %d", n, db.WriteEpoch(), writers*writes)
	}
	want := worldBytes(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(durableNER(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.WriteEpoch(); got != n {
		t.Fatalf("reopen recovered write epoch %d, want the %d commits", got, n)
	}
	if !bytes.Equal(worldBytes(t, re), want) {
		t.Fatal("reopen recovered another world")
	}
}
