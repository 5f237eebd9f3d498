package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"factordb"
	"factordb/internal/core"
	"factordb/internal/exp"
	"factordb/internal/ivm"
	"factordb/internal/mcmc"
	"factordb/internal/ra"
	"factordb/internal/relstore"
	"factordb/internal/sqlparse"
	"factordb/internal/store"
	"factordb/internal/world"
)

// Layer probes time calls into each layer's public functions on a freshly
// built system of the run's size. They run only in the traced run and do
// not depend on the workload (except the plan-cache replay), so a layer
// metric reads the same whichever workload's trace reports it.

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// meanOf runs fn n times inside one root span and returns the mean
// duration and mean allocation count per call.
func meanOf(tr *tracer, name string, n int, fn func(i int)) (time.Duration, float64) {
	a0 := mallocs()
	d := tr.time(name, func() {
		for i := 0; i < n; i++ {
			fn(i)
		}
	})
	return d / time.Duration(n), float64(mallocs()-a0) / float64(n)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func runProbes(cfg *runConfig, tr *tracer, m map[string]float64) error {
	sys, err := buildSystem(cfg)
	if err != nil {
		return err
	}
	if err := probeSQLParse(cfg, tr, m); err != nil {
		return err
	}
	if err := probeRelational(cfg, sys, tr, m); err != nil {
		return err
	}
	if err := probeSampling(cfg, sys, tr, m); err != nil {
		return err
	}
	if err := probeWrites(sys, tr, m); err != nil {
		return err
	}
	if err := probeStore(cfg, sys, tr, m); err != nil {
		return err
	}
	return probeServing(cfg, tr, m)
}

// probeSQLParse: Compile cold, and the raw-SQL plan cache under this
// workload's own statement stream.
func probeSQLParse(cfg *runConfig, tr *tracer, m map[string]float64) error {
	var cerr error
	d, allocs := meanOf(tr, "sqlparse.Compile", 20*len(servedQueries), func(i int) {
		if _, _, err := sqlparse.Compile(servedQueries[i%len(servedQueries)]); err != nil {
			cerr = err
		}
	})
	if cerr != nil {
		return cerr
	}
	m["sqlparse.compile_cold_us"] = us(d)
	m["sqlparse.compile_allocs"] = allocs

	pc := sqlparse.NewPlanCache(0)
	if _, _, err := pc.CompileQuery(exp.Query1); err != nil {
		return err
	}
	d, _ = meanOf(tr, "sqlparse.PlanCache.CompileQuery(hit)", 100000, func(int) { pc.CompileQuery(exp.Query1) })
	m["sqlparse.plan_cache_hit_ns"] = float64(d.Nanoseconds())

	// Replay three rounds of the workload's statements through a fresh
	// cache: hits ÷ lookups, the share of parsing the cache saves.
	g, err := newGenerator(cfg.Workload, cfg.Seed, cfg.Scale)
	if err != nil {
		return err
	}
	pc = sqlparse.NewPlanCache(0)
	var lookups, hits int
	for r := 0; r < 3; r++ {
		for _, o := range g.round(r) {
			var hit bool
			var err error
			switch o.Kind {
			case opRead:
				if len(o.Args) > 0 {
					continue // placeholder statements go through Prepare, not this cache
				}
				_, hit, err = pc.CompileQuery(o.SQL)
			case opWrite:
				_, hit, err = pc.CompileMutation(o.SQL)
			default:
				continue
			}
			if err != nil {
				return fmt.Errorf("%s: %w", o.SQL, err)
			}
			lookups++
			if hit {
				hits++
			}
		}
	}
	if lookups > 0 {
		m["sqlparse.plan_cache_hit_ratio"] = float64(hits) / float64(lookups)
	}
	return nil
}

// walkedWorld clones the prototype world and walks it past the all-O
// start, so the relational probes see a world with entities in it.
func walkedWorld(cfg *runConfig, sys *exp.NERSystem, chain int) (*world.ChangeLog, *mcmc.Sampler, error) {
	log, proposer, err := sys.NewChainWorld(chain)
	if err != nil {
		return nil, nil, err
	}
	s := mcmc.NewSampler(proposer, chainSeed(chain))
	s.Run(cfg.Scale.BurnIn)
	log.Drain()
	return log, s, nil
}

// probeRelational: relstore clone and scan, ra bind and streaming
// evaluation of each paper query over one walked world.
func probeRelational(cfg *runConfig, sys *exp.NERSystem, tr *tracer, m map[string]float64) error {
	d, _ := meanOf(tr, "relstore.DB.Clone", 5, func(int) { sys.WorldDB().Clone() })
	m["relstore.clone_ms"] = ms(d)

	log, _, err := walkedWorld(cfg, sys, 0)
	if err != nil {
		return err
	}
	db := log.DB()
	rel, err := db.Relation("TOKEN")
	if err != nil {
		return err
	}
	var rows int
	d, _ = meanOf(tr, "relstore.Relation.Scan", 20, func(int) {
		rel.Scan(func(relstore.RowID, relstore.Tuple) bool { rows++; return true })
	})
	m["relstore.scan_mrows_per_s"] = float64(rel.Len()) / d.Seconds() / 1e6

	var bindTotal time.Duration
	var evalAllocs, scanned, results float64
	for qi, q := range paperQueries {
		plan, _, err := sqlparse.Compile(q)
		if err != nil {
			return err
		}
		var bound *ra.Bound
		var berr error
		d, _ := meanOf(tr, "ra.Bind."+paperQueryTags[qi], 20, func(int) { bound, berr = ra.Bind(db, plan) })
		if berr != nil {
			return berr
		}
		bindTotal += d
		it, _, err := ra.Stream(bound)
		if err != nil {
			return err
		}
		var out int
		d, allocs := meanOf(tr, "ra.Stream."+paperQueryTags[qi], 20, func(int) {
			it(func(relstore.Tuple, int64) bool { out++; return true })
		})
		m["ra.stream_eval_ms."+paperQueryTags[qi]] = ms(d)
		evalAllocs += allocs

		// Base rows read per answer row: every leaf of the pushed-down
		// plan scans its whole relation once per evaluation.
		ait, _, st, err := ra.AnalyzeStream(bound)
		if err != nil {
			return err
		}
		ait(func(relstore.Tuple, int64) bool { return true })
		isParent := make([]bool, len(st.Nodes))
		for _, n := range st.Nodes {
			if n.Parent >= 0 {
				isParent[n.Parent] = true
			}
		}
		for i := range st.Nodes {
			if !isParent[i] {
				scanned += float64(rel.Len())
			}
		}
		results += float64(st.Nodes[0].Rows)
	}
	m["ra.bind_us"] = us(bindTotal / time.Duration(len(paperQueries)))
	m["ra.stream_allocs_per_eval"] = evalAllocs / float64(len(paperQueries))
	if results > 0 {
		m["ra.rows_scanned_per_result"] = scanned / results
	}
	return nil
}

// probeSamples is how many samples the decomposed sample loop collects
// per query.
const probeSamples = 64

// probeSampling replays core.Evaluator.CollectSample from outside, one
// public layer call at a time — k walk-steps, drain the change log, fold
// the delta into the view, fold the view into the estimator — so each
// layer's share of a materialized sample can be read off the trace.
func probeSampling(cfg *runConfig, sys *exp.NERSystem, tr *tracer, m map[string]float64) error {
	var walk, drain, addSample time.Duration
	var steps, accepted int64
	var deltaRows, samples float64
	var q1 *core.Estimator
	for qi, q := range paperQueries {
		tag := paperQueryTags[qi]
		log, sampler, err := walkedWorld(cfg, sys, qi)
		if err != nil {
			return err
		}
		plan, _, err := sqlparse.Compile(q)
		if err != nil {
			return err
		}
		bound, err := ra.Bind(log.DB(), plan)
		if err != nil {
			return err
		}
		var view *ivm.View
		var verr error
		m["ivm.mount_ms."+tag] = ms(tr.time("ivm.NewView."+tag, func() { view, verr = ivm.NewView(bound) }))
		if verr != nil {
			return verr
		}
		est := core.NewEstimator()
		s0, a0 := sampler.Steps(), sampler.Accepted()
		var apply time.Duration
		for i := 0; i < probeSamples; i++ {
			root := tr.begin("probe.sample."+tag, -1, -(qi*probeSamples + i + 1))
			timed := func(name string, fn func()) time.Duration {
				id := tr.begin(name, root, -(qi*probeSamples + i + 1))
				t := time.Now()
				fn()
				d := time.Since(t)
				tr.end(id)
				return d
			}
			walk += timed("mcmc.Sampler.Run", func() { sampler.Run(cfg.Scale.K) })
			var d ivm.BaseDelta
			drain += timed("world.ChangeLog.Drain", func() { d = log.Drain() })
			for _, bag := range d {
				deltaRows += float64(bag.Len())
			}
			apply += timed("ivm.View.Apply", func() { view.Apply(d) })
			addSample += timed("core.Estimator.AddSample", func() { est.AddSample(view.Result()) })
			tr.end(root)
		}
		samples += probeSamples
		steps += sampler.Steps() - s0
		accepted += sampler.Accepted() - a0
		m["ivm.apply_us_per_sample."+tag] = us(apply / probeSamples)
		m["ivm.view_rows."+tag] = float64(view.Result().Len())
		if qi == 0 {
			q1 = est
		}
	}
	m["mcmc.steps_per_s"] = float64(steps) / walk.Seconds()
	m["mcmc.accept_ratio"] = float64(accepted) / float64(steps)
	if accepted > 0 {
		m["mcmc.ns_per_accepted_step"] = float64(walk.Nanoseconds()) / float64(accepted)
	}
	m["world.drain_us_per_sample"] = us(drain) / samples
	m["world.delta_rows_per_sample"] = deltaRows / samples
	m["core.add_sample_us"] = us(addSample) / samples

	var cis []core.TupleCI
	d, _ := meanOf(tr, "core.Estimator.ResultsCI", 20, func(int) { cis = q1.ResultsCI(1.96) })
	m["core.results_ci_us"] = us(d)
	_, spec, err := sqlparse.Compile(exp.Query1 + " ORDER BY P DESC LIMIT 10")
	if err != nil {
		return err
	}
	d, _ = meanOf(tr, "core.SortTupleCIs", 20, func(int) {
		core.SortTupleCIs(append([]core.TupleCI(nil), cis...), spec)
	})
	m["core.rank_us"] = us(d)
	return nil
}

// probeUpdates resolves n single-row evidence UPDATEs against db.
func probeUpdates(db *relstore.DB, n int) ([][]world.Op, time.Duration, error) {
	batches := make([][]world.Op, n)
	var total time.Duration
	for i := range batches {
		mut, err := sqlparse.CompileExec(fmt.Sprintf("UPDATE TOKEN SET STRING = 'probe%d' WHERE TOK_ID = %d", i, 10+i))
		if err != nil {
			return nil, 0, err
		}
		t := time.Now()
		batches[i], err = world.ResolveMutation(db, mut)
		total += time.Since(t)
		if err != nil {
			return nil, 0, err
		}
		if len(batches[i]) != 1 {
			return nil, 0, fmt.Errorf("probe UPDATE %d resolved to %d ops, want 1", i, len(batches[i]))
		}
	}
	return batches, total, nil
}

// probeWrites: resolving a DML statement into row ops and replaying them
// through a change log — the two world-layer halves of a write.
func probeWrites(sys *exp.NERSystem, tr *tracer, m map[string]float64) error {
	const n = 20
	db := sys.WorldDB().Clone()
	var batches [][]world.Op
	var resolve time.Duration
	var err error
	tr.time("world.ResolveMutation", func() { batches, resolve, err = probeUpdates(db, n) })
	if err != nil {
		return err
	}
	m["world.resolve_mutation_us"] = us(resolve / n)
	log := world.NewChangeLog(db)
	d, _ := meanOf(tr, "world.ChangeLog.ApplyOps", n, func(i int) {
		if _, aerr := log.ApplyOps(batches[i]); aerr != nil {
			err = aerr
		}
	})
	m["world.apply_ops_us"] = us(d)
	return err
}

// probeStore drives a DiskStore directly: appends under FsyncAlways (the
// only policy whose fsync cost is visible per append), one checkpoint,
// then a reopen that replays the log tail.
func probeStore(cfg *runConfig, sys *exp.NERSystem, tr *tracer, m map[string]float64) (err error) {
	const appends, tail = 32, 8
	dir := filepath.Join(cfg.WorkDir, fmt.Sprintf("probe-store-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opts := store.Options{Dir: dir, Fsync: store.FsyncAlways, CheckpointOps: -1, CheckpointBytes: -1}
	st, err := store.Open(opts)
	if err != nil {
		return err
	}
	defer func() { st.Close() }()
	if err := st.Seed(sys.WorldDB(), 0); err != nil {
		return err
	}
	batches, _, err := probeUpdates(sys.WorldDB().Clone(), appends+tail)
	if err != nil {
		return err
	}
	var total, fsync time.Duration
	for i := 0; i < appends; i++ {
		total += tr.time("store.DiskStore.Append", func() { err = st.Append(int64(i+1), batches[i]) })
		if err != nil {
			return err
		}
		fsync += time.Duration(st.LastFsyncNS())
	}
	m["store.append_us"] = us((total - fsync) / appends)
	m["store.fsync_us"] = us(fsync / appends)

	m["store.checkpoint_ms"] = ms(tr.time("store.DiskStore.Checkpoint", func() { err = st.Checkpoint() }))
	if err != nil {
		return err
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(snaps) == 0 {
		return fmt.Errorf("no snapshot in %s after a checkpoint (%v)", dir, err)
	}
	fi, err := os.Stat(snaps[len(snaps)-1])
	if err != nil {
		return err
	}
	m["store.checkpoint_bytes"] = float64(fi.Size())

	for i := appends; i < appends+tail; i++ {
		if err := st.Append(int64(i+1), batches[i]); err != nil {
			return err
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	m["store.recovery_ms"] = ms(tr.time("store.Open(recover)", func() { st, err = store.Open(opts) }))
	if err != nil {
		return err
	}
	m["store.replayed_records"] = float64(st.Recovery().ReplayedRecords)
	return nil
}

// probeServing: the result-cache hit path in process, through the HTTP
// handler without a socket, and over a socket.
func probeServing(cfg *runConfig, tr *tracer, m map[string]float64) error {
	s, err := openServed(cfg)
	if err != nil {
		return err
	}
	defer s.close()
	ctx := context.Background()
	query := func() (*factordb.Rows, error) {
		return s.db.Query(ctx, exp.Query1, factordb.Samples(cfg.Scale.Samples))
	}
	if _, err := query(); err != nil { // fill
		return err
	}

	const hits = 2000
	inproc := make([]float64, hits)
	var rows *factordb.Rows
	var qerr error
	d, allocs := meanOf(tr, "factordb.DB.Query(cached)", hits, func(i int) {
		t := time.Now()
		if rows, qerr = query(); qerr == nil && !rows.Cached() {
			qerr = fmt.Errorf("probe query %d missed the result cache", i)
		}
		inproc[i] = us(time.Since(t))
	})
	if qerr != nil {
		return qerr
	}
	m["serve.cache_hit_ns"] = float64(d.Nanoseconds())
	m["serve.cache_hit_allocs"] = allocs

	var str string
	d, _ = meanOf(tr, "factordb.Rows.Next+Scan", rows.Len(), func(int) {
		rows.Next()
		rows.Scan(&str)
	})
	m["factordb.rows_iter_ns_per_row"] = float64(d.Nanoseconds())

	body, err := json.Marshal(wireQuery{SQL: exp.Query1, Samples: cfg.Scale.Samples})
	if err != nil {
		return err
	}
	handler := s.db.Handler()
	var rec *httptest.ResponseRecorder
	d, _ = meanOf(tr, "factordb.Handler.ServeHTTP", 500, func(int) {
		rec = httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
	})
	if rec.Code != http.StatusOK {
		return fmt.Errorf("handler probe: HTTP %d: %s", rec.Code, rec.Body)
	}
	m["http.handler_us"] = us(d)
	m["http.resp_bytes"] = float64(rec.Body.Len())

	hw := &hotWorkload{served: s}
	hw.serve()
	defer hw.hangUp()
	overHTTP := make([]float64, 500)
	var herr error
	tr.time("http.roundtrip", func() {
		for i := range overHTTP {
			t := time.Now()
			if status, err := hw.post(body); err != nil || status != http.StatusOK {
				herr = fmt.Errorf("roundtrip probe: HTTP %d: %v", status, err)
			}
			overHTTP[i] = us(time.Since(t))
		}
	})
	if herr != nil {
		return herr
	}
	m["http.roundtrip_overhead_us"] = percentile(overHTTP, 50) - percentile(inproc, 50)
	return nil
}

// counterValue reads one unlabeled series from the database's Prometheus
// exposition — the engine's counters have no other public reader.
func counterValue(db *factordb.DB, name string) float64 {
	var buf bytes.Buffer
	db.Metrics().WriteText(&buf)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			v, _ := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v
		}
	}
	return 0
}
