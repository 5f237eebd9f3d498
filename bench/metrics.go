package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one reported metric and its unit. BENCHMARK.json
// carries the same names plus direction and regression bound; the test
// suite pins the two lists to each other.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the gated metrics, emitted by every workload on an
// untraced run: the ones that repeat from run to run on a shared 2-core
// VM. Wall-clock and CPU timings do not (README.md, "Why no timing metric
// is gated"); they are printed with every run and are per-layer metrics.
var endToEnd = []metricDef{
	{"setup_s", "s"},           // median over repeated set-ups (build + train + open + burn-in), each at the reference cache speed
	{"allocs_per_op", "count"}, // mallocs ÷ ops over the first MinRounds measured rounds
	{"alloc_kb_per_op", "kB"},  // bytes allocated ÷ ops, same rounds
	{"live_heap_mb", "MB"},     // heap in use after a forced GC at the end of those rounds
}

var paperQueryTags = []string{"q1", "q2", "q3", "q4"}

// Query-span and write-span vocabularies of the serving engine (doc.go's
// stable trace contract); the traced run aggregates them by name.
var (
	querySpanNames = []string{"compile", "cache_probe", "admission_wait", "register", "sample_wait", "snapshot_merge", "rank"}
	execSpanNames  = []string{"resolve", "wal_append", "fsync", "fanout", "burn_in", "delta_fold", "republish", "cache_invalidate"}
)

// perLayer are the single-layer metrics of the traced run, in the order
// of the layer → end-to-end table in README.md.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit string) { out = append(out, metricDef{name, unit}) }
	perQuery := func(prefix, unit string) {
		for _, q := range paperQueryTags {
			add(prefix+"."+q, unit)
		}
	}
	// Set-up as the clock read it and the cache probe around it; setup_s
	// is the first corrected by the second (cacheprobe.go).
	add("setup.wall_s", "s")
	add("setup.cache_probe_ms", "ms")

	// The ops themselves, from the workload's untraced measured rounds.
	// An untraced run prints them too ("not gated"): issue 14 listed them
	// as end-to-end metrics and its own rule (A/A spread above half the
	// bound) demoted them.
	add("throughput_ops_s", "1/s")
	add("latency_p50_ms", "ms")
	add("latency_p90_ms", "ms") // p90: the highest percentile with ≥ 10 samples beyond it on the smallest workload
	add("cpu_ms_per_op", "ms")  // process user+sys ÷ ops: catches background chain and GC work wall latency hides
	add("sqlparse.compile_cold_us", "us")
	add("sqlparse.plan_cache_hit_ns", "ns")
	add("sqlparse.plan_cache_hit_ratio", "ratio")
	add("sqlparse.compile_allocs", "count")

	add("ra.bind_us", "us")
	perQuery("ra.stream_eval_ms", "ms")
	add("ra.stream_allocs_per_eval", "count")
	add("ra.rows_scanned_per_result", "ratio")

	add("relstore.clone_ms", "ms")
	add("relstore.scan_mrows_per_s", "Mrows/s")

	add("mcmc.steps_per_s", "1/s")
	add("mcmc.accept_ratio", "ratio")
	add("mcmc.ns_per_accepted_step", "ns")
	add("mcmc.steps_per_op", "count")

	add("world.drain_us_per_sample", "us")
	add("world.delta_rows_per_sample", "count")
	add("world.resolve_mutation_us", "us")
	add("world.apply_ops_us", "us")

	perQuery("ivm.mount_ms", "ms")
	perQuery("ivm.apply_us_per_sample", "us")
	perQuery("ivm.view_rows", "count")

	add("core.add_sample_us", "us")
	add("core.results_ci_us", "us")
	add("core.rank_us", "us")

	for _, s := range querySpanNames {
		add("serve.span_ms."+s, "ms")
	}
	for _, s := range execSpanNames {
		add("serve.exec_span_ms."+s, "ms")
	}
	add("serve.cache_hit_ratio", "ratio")
	add("serve.cache_hit_ns", "ns")
	add("serve.cache_hit_allocs", "count")
	add("serve.view_registry_hits", "count")

	add("store.append_us", "us")
	add("store.fsync_us", "us")
	add("store.checkpoint_ms", "ms")
	add("store.checkpoints", "count")
	add("store.checkpoint_bytes", "bytes")
	add("store.recovery_ms", "ms")
	add("store.replayed_records", "count")

	add("http.handler_us", "us")
	add("http.roundtrip_overhead_us", "us")
	add("http.resp_bytes", "bytes")
	add("factordb.rows_iter_ns_per_row", "ns")

	add("runtime.gc_cycles", "count")
	add("runtime.gc_pause_ms", "ms")

	// The workload-specific numbers of the issue's end-to-end list. The
	// benchmark contract wants every end-to-end metric from every
	// workload and never zero, so these live here: non-zero on the
	// workload that has a naive half or a write path, zero elsewhere.
	// Untraced runs of those workloads print them too.
	add("paper.naive_ops_s", "1/s")
	add("paper.view_speedup_x", "x")
	add("write.latency_p50_ms", "ms")
	add("write.wal_bytes_per_write", "bytes")

	add("tracing_overhead_pct", "%")
	return out
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}
