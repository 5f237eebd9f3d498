package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"factordb"
)

// resultCacheTTL outlives any run, so no cached answer expires mid-run.
const resultCacheTTL = 10 * time.Minute

// served is the part the three served-mode workloads share: one database
// in ModeServed with the fixed chain pool, and the read op.
type served struct {
	cfg   *runConfig
	db    *factordb.DB
	wrong []string
}

func nerModel(cfg *runConfig) factordb.Model {
	return factordb.NER(factordb.NERConfig{Tokens: cfg.Scale.Tokens, Seed: corpusSeed})
}

// openServed opens the database and blocks until every chain has burned
// in, so the first timed op does not pay for it.
func openServed(cfg *runConfig, extra ...factordb.Option) (*served, error) {
	sc := cfg.Scale
	opts := append([]factordb.Option{
		factordb.WithMode(factordb.ModeServed),
		factordb.WithChains(sc.Chains),
		factordb.WithSteps(sc.K),
		factordb.WithSamples(sc.Samples),
		factordb.WithSeed(chainSeed(0)),
		factordb.WithBurnIn(sc.BurnIn),
		factordb.WithCache(128, resultCacheTTL),
	}, extra...)
	db, err := factordb.Open(nerModel(cfg), opts...)
	if err != nil {
		return nil, err
	}
	s := &served{cfg: cfg, db: db}
	// Chains burn in on their own goroutines and only then take
	// registrations: one cheap uncached query waits for all of them.
	rows, err := db.Query(context.Background(), evidenceProbe, factordb.NoCache(), factordb.Samples(sc.Chains))
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("burn-in probe: %w", err)
	}
	rows.Close()
	return s, nil
}

// evidenceProbe reads an evidence-only column of one corpus row: its
// answer is the row itself at P = 1, whatever the sampler does.
const evidenceProbe = `SELECT STRING FROM TOKEN WHERE TOK_ID = 0`

// read executes one served SELECT. A read fails when it errors, is shed,
// comes back partial or carries fewer samples than its budget; it is
// wrong when it contradicts the op's expectation.
func (s *served) read(o *op, x *opCtx) opResult {
	opts := make([]factordb.QueryOption, 0, 3)
	opts = append(opts, factordb.Samples(o.Samples))
	if o.NoCache {
		opts = append(opts, factordb.NoCache())
	}
	if x.tr != nil {
		opts = append(opts, factordb.Trace())
	}
	rows, err := s.db.Query(context.Background(), o.SQL, opts...)
	if err != nil {
		return opResult{Why: err.Error()}
	}
	defer rows.Close()
	res := opResult{
		OK:     !rows.Partial() && rows.Samples() >= int64(o.Samples),
		Cached: rows.Cached(),
		Trace:  rows.Trace(),
	}
	if !res.OK {
		res.Why = fmt.Sprintf("partial=%v early_stop=%v samples=%d of %d", rows.Partial(), rows.EarlyStopped(), rows.Samples(), o.Samples)
	}
	switch o.Expect {
	case expectValue:
		var got string
		if rows.Len() != 1 || !rows.Next() || rows.Scan(&got) != nil || got != o.Value || rows.Prob() != 1 {
			s.wrong = append(s.wrong, fmt.Sprintf("%s: want one row %q at P=1, got %d rows (first %q at P=%v)",
				o.SQL, o.Value, rows.Len(), got, rows.Prob()))
		}
	case expectAbsent:
		if rows.Len() != 0 {
			s.wrong = append(s.wrong, fmt.Sprintf("%s: want no rows, got %d", o.SQL, rows.Len()))
		}
	default:
		for rows.Next() { // a client reads its answer
		}
	}
	return res
}

func (s *served) steps() float64 {
	st := s.db.Status()
	var n int64
	for _, c := range st.Pool {
		n += c.Steps
	}
	return float64(n) / float64(len(st.Pool))
}

func (s *served) prepare() error      { return nil }
func (s *served) incorrect() []string { return s.wrong }
func (s *served) close() error        { return s.db.Close() }

func (s *served) layer(m map[string]float64) {
	m["serve.view_registry_hits"] = counterValue(s.db, "factordb_view_cache_hits_total")
}

// ---- cold_reads ----

// coldWorkload answers every query from scratch: NoCache, so each op
// mounts a view per chain, waits for the full sample budget, merges and
// ranks.
type coldWorkload struct{ *served }

func setupCold(cfg *runConfig) (*coldWorkload, error) {
	s, err := openServed(cfg)
	if err != nil {
		return nil, err
	}
	return &coldWorkload{s}, nil
}

func (w *coldWorkload) do(o *op, x *opCtx) opResult { return w.read(o, x) }

func (w *coldWorkload) check(runSummary) error {
	rows, err := w.db.Query(context.Background(), evidenceProbe, factordb.NoCache(), factordb.Samples(w.cfg.Scale.Samples))
	if err != nil {
		return err
	}
	defer rows.Close()
	if rows.Len() != 1 || !rows.Next() || rows.Prob() != 1 {
		return fmt.Errorf("evidence-only query: want its one row at P=1, got %d rows (P=%v)", rows.Len(), rows.Prob())
	}
	return nil
}

// ---- mixed_rw ----

// mixedWorkload runs writes beside cache-enabled reads on a durable
// database: default (interval) fsync, a checkpoint every 16 logged ops.
type mixedWorkload struct {
	*served
	dir       string
	committed int64

	walBytes  int64 // WAL growth observed across writes
	walWrites int64
}

func setupMixed(cfg *runConfig, rep int) (*mixedWorkload, error) {
	dir := filepath.Join(cfg.WorkDir, fmt.Sprintf("mixed-%d-%d", os.Getpid(), rep))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	s, err := openServed(cfg, factordb.WithDataDir(dir), factordb.WithCheckpointEvery(16, 0))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &mixedWorkload{served: s, dir: dir}, nil
}

func (w *mixedWorkload) do(o *op, x *opCtx) opResult {
	if o.Kind == opRead {
		return w.read(o, x)
	}
	var opts []factordb.ExecOption
	if x.tr != nil {
		opts = append(opts, factordb.ExecTrace())
	}
	before := w.db.Durability().WALBytes
	res, err := w.db.Exec(context.Background(), o.SQL, opts...)
	if err != nil {
		return opResult{Why: err.Error()}
	}
	if res.RowsAffected == 0 {
		return opResult{Why: "matched no rows"}
	}
	w.committed++
	// A background checkpoint may truncate the log between the two reads;
	// such a write is left out of the bytes-per-write figure.
	if grew := w.db.Durability().WALBytes - before; grew > 0 {
		w.walBytes += grew
		w.walWrites++
	}
	return opResult{OK: true, Trace: res.Trace}
}

func (w *mixedWorkload) layer(m map[string]float64) {
	w.served.layer(m)
	m["store.checkpoints"] = float64(w.db.Durability().Checkpoints)
	if w.walWrites > 0 {
		m["write.wal_bytes_per_write"] = float64(w.walBytes) / float64(w.walWrites)
	}
}

// check reopens the data directory: every committed write must have
// survived, so the recovered write epoch equals the commit count.
func (w *mixedWorkload) check(runSummary) error {
	if got := w.db.WriteEpoch(); got != w.committed {
		return fmt.Errorf("write epoch %d after %d committed writes", got, w.committed)
	}
	if err := w.db.Close(); err != nil {
		return err
	}
	db, err := factordb.Open(nerModel(w.cfg), factordb.WithDataDir(w.dir))
	if err != nil {
		return fmt.Errorf("reopening %s: %w", w.dir, err)
	}
	defer db.Close()
	if got := db.WriteEpoch(); got != w.committed {
		return fmt.Errorf("recovered write epoch %d, want %d committed writes", got, w.committed)
	}
	return nil
}

func (w *mixedWorkload) close() error {
	err := w.db.Close() // idempotent: check has usually closed it already
	if rerr := os.RemoveAll(w.dir); err == nil {
		err = rerr
	}
	return err
}
