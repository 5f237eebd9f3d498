package factordb

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
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
