package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"

	"factordb"
)

// runConfig is one benchmark invocation.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Scale    scale
	WorkDir  string // scratch for data dirs and trace files

	// Fault injection for the harness's own tests: count one op as
	// failed, or expect a value the database never wrote (what a stale
	// cached answer looks like to the checker).
	InjectFailedOp bool
	InjectStale    bool
}

// corpusSeed and chainSeed fix the database under test: the same corpus,
// the same trained model and the same walks in every run. The acceptance
// driver gives each of its runs another --seed and gates the spread
// across them, and another corpus or another walk is another database,
// not noise: a per-seed corpus alone moved allocs_per_op by 1.5 % against
// its 2 % bound, and per-seed walks fill the hot_reads_http cache with
// other answers, which moved its allocs_per_op and alloc_kb_per_op by
// 2.3 %. So --seed moves what a workload does — the op order of every
// round, write targets and values, and the chains of the paper_scaling
// equivalence check — and not what it does it to.
const corpusSeed = 1

// chainSeed is the sampler seed of chain (or per-query chain pair) i.
func chainSeed(i int) int64 { return 1000 + int64(i)*104729 }

// opResult is what a workload reports for one executed op.
type opResult struct {
	OK     bool                 // false: error, shed, partial or under-sampled
	Why    string               // what went wrong, when OK is false
	Cached bool                 // read answered from the result cache
	Trace  *factordb.QueryTrace // engine span breakdown (traced ops only)
}

// opCtx carries the per-op tracing state into a workload; tr is nil on
// untraced ops.
type opCtx struct {
	tr   *tracer
	span int // the op's root span in tr
	id   int // op id shared by every span of the op
}

// runSummary is what the end-of-run correctness checks may consult.
type runSummary struct {
	MeasuredSteps float64 // walk-steps per chain taken inside measured rounds
	Reads         int
	CachedReads   int
}

// workload is one set-up instance of a named workload.
type workload interface {
	// prepare does the one-time work that precedes the warm-up rounds but
	// is not set-up: it runs once, on the instance that is kept.
	prepare() error
	// do executes one generated op.
	do(o *op, x *opCtx) opResult
	// steps reports the walk-steps the primary loop has driven so far,
	// per chain.
	steps() float64
	// incorrect returns the wrong answers seen so far (stale reads,
	// response bodies that differ from the in-process answer).
	incorrect() []string
	// layer adds the readings only the workload itself can take (view
	// registry hits, checkpoints, WAL bytes per write).
	layer(m map[string]float64)
	// check runs the end-of-run correctness checks.
	check(sum runSummary) error
	close() error
}

func setupWorkload(cfg *runConfig, g *generator, rep int) (workload, error) {
	switch cfg.Workload {
	case wlPaper:
		return setupPaper(cfg)
	case wlCold:
		return setupCold(cfg)
	case wlHot:
		return setupHot(cfg, g)
	case wlMixed:
		return setupMixed(cfg, rep)
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
}

// roundStats are the raw readings of one round's timed region.
type roundStats struct {
	Ops      int     `json:"ops"`
	WallS    float64 `json:"wall_s"`
	CPUMs    float64 `json:"cpu_ms"`
	Mallocs  uint64  `json:"mallocs"`
	Bytes    uint64  `json:"alloc_bytes"`
	GCs      uint32  `json:"gc_cycles"`
	GCPauseN uint64  `json:"gc_pause_ns"`
	Steps    float64 `json:"walk_steps_per_chain"`
	P50Ms    float64 `json:"latency_p50_ms"`
	P90Ms    float64 `json:"latency_p90_ms"`
}

func (r roundStats) opsPerS() float64 { return float64(r.Ops) / r.WallS }

// result is everything one run measured.
type result struct {
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	Failures  []string `json:"failures,omitempty"`

	Metrics  map[string]float64 `json:"metrics"`
	Reported map[string]float64 `json:"reported_not_gated,omitempty"`

	SetupS       []float64    `json:"setup_s_each"`      // at the reference cache speed
	SetupWallS   []float64    `json:"setup_wall_s_each"` // as the clock read them
	ProbeS       []float64    `json:"cache_probe_s"`     // before the first set-up and after each
	WarmupS      float64      `json:"warmup_s"`
	Rounds       []roundStats `json:"rounds"`
	NaiveRounds  []roundStats `json:"naive_rounds,omitempty"`
	TracedRounds []roundStats `json:"traced_rounds,omitempty"`
	LatSamples   int          `json:"latency_samples"`
	Env          environment  `json:"env"`
}

// harness drives one workload instance through its rounds.
type harness struct {
	cfg *runConfig
	gen *generator
	w   workload
	tr  *tracer

	round     int // next generator round
	opID      int
	attempted int
	failed    int
	reads     int
	cached    int

	lat      []float64 // pooled op latencies of measured rounds, ms
	writeLat []float64
	readings [2]reading

	// Engine span time by name, summed over traced ops.
	querySpanNS map[string]int64
	execSpanNS  map[string]int64
	tracedReads int
	tracedExecs int

	failures []string // the first few failed ops, for the report

	staleInjected  bool
	failedInjected bool
}

// liveHeap is the heap in use after a forced collection, in MB.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func cpuMs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// phase says what a round's readings are used for.
type phase uint8

const (
	phaseWarmup   phase = iota // discarded
	phaseMeasured              // pooled into the reported metrics
	phaseTraced                // engine and harness tracing on; feeds the span totals
)

// reading is one look at the process's cumulative counters, taken at a
// segment boundary. The segment before it ends at closed, the one after
// it starts at opened, so the look itself is in neither.
type reading struct {
	closed, opened time.Time
	cpuMs          float64
	mem            runtime.MemStats
	steps          float64
}

// read fills the harness's idx-th reading buffer: the two are reused in
// turn, so looking allocates nothing inside the region it measures.
func (h *harness) read(idx int) *reading {
	r := &h.readings[idx&1]
	r.closed = time.Now()
	r.cpuMs = cpuMs()
	r.steps = h.w.steps()
	runtime.ReadMemStats(&r.mem)
	r.opened = time.Now()
	return r
}

// add charges the interval between two readings to r.
func (r *roundStats) add(from, to *reading) {
	r.WallS += to.closed.Sub(from.opened).Seconds()
	r.CPUMs += to.cpuMs - from.cpuMs
	r.Mallocs += to.mem.Mallocs - from.mem.Mallocs
	r.Bytes += to.mem.TotalAlloc - from.mem.TotalAlloc
	r.GCs += to.mem.NumGC - from.mem.NumGC
	r.GCPauseN += to.mem.PauseTotalNs - from.mem.PauseTotalNs
	r.Steps += to.steps - from.steps
}

// runRound executes ops as one timed region and returns its readings,
// the naive samples of a paper_scaling round apart from the rest: the
// two kinds alternate every few milliseconds, the counters are read
// wherever the kind changes, and each kind is charged its own segments.
// The heap is collected just before, so every round starts from the same
// GC state.
func (h *harness) runRound(ops []op, ph phase) (primary, naive roundStats) {
	record, traced := ph == phaseMeasured, ph == phaseTraced
	var stats [2]roundStats
	lat := [2][]float64{make([]float64, 0, len(ops)), make([]float64, 0, len(ops)/naivePer+1)}
	class := func(o *op) int {
		if o.Kind == opNaive {
			return 1
		}
		return 0
	}
	runtime.GC()
	cur := class(&ops[0])
	looks := 0
	from := h.read(looks)
	for i := range ops {
		o := &ops[i]
		if c := class(o); c != cur {
			looks++
			to := h.read(looks)
			stats[cur].add(from, to)
			cur, from = c, to
		}
		h.opID++
		x := opCtx{id: h.opID, span: -1}
		if traced {
			x.tr = h.tr
			x.span = h.tr.begin(opSpanName(o), -1, x.id)
		}
		t := time.Now()
		res := h.w.do(o, &x)
		d := time.Since(t)
		if traced {
			h.tr.end(x.span)
			h.foldEngineTrace(o, res.Trace, &x)
		}
		h.attempted++
		if h.cfg.InjectFailedOp && !h.failedInjected {
			h.failedInjected = true
			res.OK, res.Why = false, "injected failure"
		}
		if !res.OK {
			h.failed++
			if len(h.failures) < 10 {
				h.failures = append(h.failures, fmt.Sprintf("op %d %s %s: %s", h.opID, opSpanName(o), o.SQL, res.Why))
			}
		}
		if o.Kind == opRead && ph != phaseWarmup {
			h.reads++
			if res.Cached {
				h.cached++
			}
		}
		ms := float64(d.Nanoseconds()) / 1e6
		stats[cur].Ops++
		lat[cur] = append(lat[cur], ms)
		if record && o.Kind == opWrite {
			h.writeLat = append(h.writeLat, ms)
		}
	}
	stats[cur].add(from, h.read(looks+1))
	if record {
		h.lat = append(h.lat, lat[0]...)
	}
	for c := range stats {
		stats[c].P50Ms = percentile(lat[c], 50)
		stats[c].P90Ms = percentile(lat[c], 90)
	}
	return stats[0], stats[1]
}

func opSpanName(o *op) string {
	switch o.Kind {
	case opSample:
		return "op.sample"
	case opNaive:
		return "op.naive_sample"
	case opWrite:
		return "op.write"
	}
	return "op.read"
}

// foldEngineTrace hangs the engine's own spans under the op's harness
// span and adds their durations to the per-name totals.
func (h *harness) foldEngineTrace(o *op, qt *factordb.QueryTrace, x *opCtx) {
	if qt == nil {
		return
	}
	sums := h.querySpanNS
	if o.Kind == opWrite {
		sums = h.execSpanNS
		h.tracedExecs++
	} else {
		h.tracedReads++
	}
	for _, s := range qt.Spans {
		sums[s.Name] += s.DurNS
		begin := qt.Begin.Add(time.Duration(s.StartNS))
		h.tr.add("serve."+s.Name, begin, begin.Add(time.Duration(s.DurNS)), x.span, x.id)
	}
}

// nextRound generates the next round's ops, applying the stale-answer
// injection to the first op that carries an expectation.
func (h *harness) nextRound() []op {
	ops := h.gen.round(h.round)
	h.round++
	if h.cfg.InjectStale && !h.staleInjected {
		for i := range ops {
			if ops[i].Expect == expectValue {
				ops[i].Value += "-never-written"
				h.staleInjected = true
				break
			}
		}
	}
	return ops
}

// run executes the whole benchmark invocation.
func run(cfg *runConfig) (*result, error) {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	g, err := newGenerator(cfg.Workload, cfg.Seed, cfg.Scale)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]float64{}}
	res.Env = captureEnv(cfg)

	// Set up several times and report the median, so one slow page-fault
	// or fsync does not decide setup_s. Only the last instance is kept.
	// The cache probe runs before and after every set-up (cacheprobe.go);
	// its 7 MB are dropped before the first round.
	reps := cfg.Scale.SetupReps
	if cfg.Trace {
		reps = 1
	}
	probe := newCacheProbe()
	res.ProbeS = append(res.ProbeS, probe.sample())
	var w workload
	for rep := 0; rep < reps; rep++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, fmt.Errorf("closing set-up %d: %w", rep-1, err)
			}
			w = nil
			runtime.GC()
		}
		t := time.Now()
		w, err = setupWorkload(cfg, g, rep)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.SetupWallS = append(res.SetupWallS, time.Since(t).Seconds())
		res.ProbeS = append(res.ProbeS, probe.sample())
		res.SetupS = append(res.SetupS, atReferenceSpeed(res.SetupWallS[rep], res.ProbeS[rep], res.ProbeS[rep+1]))
	}
	probe = nil
	h := &harness{cfg: cfg, gen: g, w: w, querySpanNS: map[string]int64{}, execSpanNS: map[string]int64{}}

	phase := time.Now()
	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	for i := 0; i < cfg.Scale.Warmup; i++ {
		h.runRound(h.nextRound(), phaseWarmup)
	}
	res.WarmupS = time.Since(phase).Seconds()

	// Measured rounds: fixed composition each and a fixed number of them,
	// so every run does the same work. When the machine is so slow that
	// --seconds (warm-up included) runs out first, the rounds past
	// MinRounds are dropped: the count and heap metrics are taken from
	// exactly the first MinRounds and never notice; the timings lose
	// samples.
	want, limit := cfg.Scale.MinRounds, cfg.Scale.Rounds[cfg.Workload]
	if cfg.Trace {
		want, limit = tracedRounds, tracedRounds
	}
	sum := runSummary{}
	var liveHeapMB float64
	for len(res.Rounds) < limit {
		if len(res.Rounds) >= want && time.Since(phase).Seconds() >= cfg.Seconds {
			break
		}
		rs, naive := h.runRound(h.nextRound(), phaseMeasured)
		res.Rounds = append(res.Rounds, rs)
		sum.MeasuredSteps += rs.Steps
		if naive.Ops > 0 {
			res.NaiveRounds = append(res.NaiveRounds, naive)
		}
		if len(res.Rounds) == want {
			liveHeapMB = liveHeap()
		}
	}
	sum.Reads, sum.CachedReads = h.reads, h.cached

	if cfg.Trace {
		h.tr = newTracer()
		for i := 0; i < tracedRounds; i++ {
			rs, _ := h.runRound(h.nextRound(), phaseTraced)
			res.TracedRounds = append(res.TracedRounds, rs)
		}
	}

	layer := map[string]float64{}
	w.layer(layer)
	checkErr := w.check(sum)
	closeErr := w.close()

	res.Attempted, res.Failed, res.Failures = h.attempted, h.failed, h.failures
	res.Problems = append(res.Problems, w.incorrect()...)
	if checkErr != nil {
		res.Problems = append(res.Problems, checkErr.Error())
	}
	if closeErr != nil {
		res.Problems = append(res.Problems, "close: "+closeErr.Error())
	}
	res.Correct = len(res.Problems) == 0
	res.LatSamples = len(h.lat)

	if cfg.Trace {
		if err := h.layerMetrics(res, layer); err != nil {
			return nil, err
		}
		if err := h.tr.write(cfg); err != nil {
			return nil, err
		}
	} else {
		h.endToEndMetrics(res, liveHeapMB, layer)
	}
	res.Env.finish(len(res.Rounds), cfg.Scale.Warmup)
	for name, v := range res.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", name)
		}
	}
	return res, nil
}

// tracedRounds is how many rounds the traced run measures untraced (for
// the overhead baseline) and then again with tracing on.
const tracedRounds = 3

func roundMedian(rs []roundStats, f func(roundStats) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return median(xs)
}

// opMetrics computes the raw set-up readings and what the measured rounds
// say about the ops themselves: wall-clock and CPU timings (rates and CPU
// are medians over rounds, latencies are pooled) and the numbers only one
// workload has.
// An untraced run reports them beside the gated metrics, a traced run
// among the per-layer metrics.
func (h *harness) opMetrics(res *result, layer map[string]float64) map[string]float64 {
	m := map[string]float64{
		"setup.wall_s":         median(res.SetupWallS),
		"setup.cache_probe_ms": median(res.ProbeS) * 1e3,
		"throughput_ops_s":     roundMedian(res.Rounds, roundStats.opsPerS),
		"latency_p50_ms":       percentile(h.lat, 50),
		"latency_p90_ms":       percentile(h.lat, 90),
		"cpu_ms_per_op":        roundMedian(res.Rounds, func(r roundStats) float64 { return r.CPUMs / float64(r.Ops) }),
	}
	if len(res.NaiveRounds) > 0 {
		m["paper.naive_ops_s"] = roundMedian(res.NaiveRounds, roundStats.opsPerS)
		// The two kinds of sample alternate every few milliseconds inside
		// one round, so machine drift cancels in the ratio.
		ratios := make([]float64, len(res.Rounds))
		for i := range res.Rounds {
			ratios[i] = res.Rounds[i].opsPerS() / res.NaiveRounds[i].opsPerS()
		}
		m["paper.view_speedup_x"] = median(ratios)
	}
	if len(h.writeLat) > 0 {
		m["write.latency_p50_ms"] = percentile(h.writeLat, 50)
	}
	if v, ok := layer["write.wal_bytes_per_write"]; ok {
		m["write.wal_bytes_per_write"] = v
	}
	return m
}

func (h *harness) endToEndMetrics(res *result, liveHeapMB float64, layer map[string]float64) {
	m := res.Metrics
	m["setup_s"] = median(res.SetupS)
	// Allocation per op drifts for many rounds while the chains' worlds
	// settle from the all-O start, so the count metrics are totals over
	// the rounds every run has, the first MinRounds, and do not depend on
	// how many more a fast machine fits into --seconds. Totals, not a
	// median of rounds: which query meets which state of the world moves
	// with the seed, and a median picks one such meeting.
	var ops, mallocs, bytes float64
	for _, r := range res.Rounds[:min(len(res.Rounds), max(h.cfg.Scale.MinRounds, 1))] {
		ops += float64(r.Ops)
		mallocs += float64(r.Mallocs)
		bytes += float64(r.Bytes)
	}
	m["allocs_per_op"] = mallocs / ops
	m["alloc_kb_per_op"] = bytes / 1e3 / ops
	m["live_heap_mb"] = liveHeapMB
	// Timings are reported beside the gated metrics, not among them: see
	// README.md, "Why no timing metric is gated".
	res.Reported = h.opMetrics(res, layer)
}

// layerMetrics fills every per-layer metric: workload-independent
// probes first, then the readings of this workload's own rounds.
func (h *harness) layerMetrics(res *result, layer map[string]float64) error {
	m := res.Metrics
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	if err := runProbes(h.cfg, h.tr, m); err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}
	for k, v := range layer {
		m[k] = v
	}
	for k, v := range h.opMetrics(res, layer) {
		m[k] = v
	}
	all := append(append([]roundStats(nil), res.Rounds...), res.TracedRounds...)
	var ops, gcs int
	var steps, pauseNS float64
	for _, r := range all {
		ops += r.Ops
		steps += r.Steps
		gcs += int(r.GCs)
		pauseNS += float64(r.GCPauseN)
	}
	// The fidelity pin: k × samples ÷ chains per fresh served answer, k
	// per collected sample, 0 when every answer comes from the cache.
	m["mcmc.steps_per_op"] = steps / float64(ops)
	m["runtime.gc_cycles"] = float64(gcs)
	m["runtime.gc_pause_ms"] = pauseNS / 1e6
	if h.reads > 0 {
		m["serve.cache_hit_ratio"] = float64(h.cached) / float64(h.reads)
	}
	for _, name := range querySpanNames {
		if h.tracedReads > 0 {
			m["serve.span_ms."+name] = float64(h.querySpanNS[name]) / 1e6 / float64(h.tracedReads)
		}
	}
	for _, name := range execSpanNames {
		if h.tracedExecs > 0 {
			m["serve.exec_span_ms."+name] = float64(h.execSpanNS[name]) / 1e6 / float64(h.tracedExecs)
		}
	}
	untraced := roundMedian(res.Rounds, roundStats.opsPerS)
	tracedTP := roundMedian(res.TracedRounds, roundStats.opsPerS)
	m["tracing_overhead_pct"] = (untraced - tracedTP) / untraced * 100
	return nil
}
