package metrics

import (
	"math"
	rtmetrics "runtime/metrics"
)

// RegisterGoRuntime adds the Go runtime's own series to r — goroutines,
// live heap, GC cycles and GC pause time — so allocation churn shows on
// /metrics, not only in offline benchmarks. Each is read from
// runtime/metrics when scraped and costs nothing in between.
func RegisterGoRuntime(r *Registry) {
	for _, m := range []struct{ name, help, sample string }{
		{"go_goroutines", "goroutines that currently exist", "/sched/goroutines:goroutines"},
		{"go_gc_heap_live_bytes", "heap bytes marked live by the last completed GC cycle", "/gc/heap/live:bytes"},
		{"go_gc_cycles_total", "completed GC cycles since the process started", "/gc/cycles/total:gc-cycles"},
		{"go_gc_pause_seconds_total", "stop-the-world GC pause time since the process started " +
			"(the runtime's pause histogram summed at bucket midpoints)", "/sched/pauses/total/gc:seconds"},
	} {
		r.NewGaugeFunc(m.name, m.help, func() float64 { return readRuntime(m.sample) })
	}
}

// readRuntime reads one runtime/metrics sample as a number: a counter
// as is, a histogram of durations as the sum of its observations placed
// at their buckets' midpoints (durations are non-negative; the unbounded
// top bucket counts at its lower edge). NaN if this runtime does not
// provide the sample.
func readRuntime(name string) float64 {
	s := []rtmetrics.Sample{{Name: name}}
	rtmetrics.Read(s)
	switch v := s[0].Value; v.Kind() {
	case rtmetrics.KindUint64:
		return float64(v.Uint64())
	case rtmetrics.KindFloat64Histogram:
		h := v.Float64Histogram()
		var sum float64
		for i, n := range h.Counts {
			lo, hi := max(h.Buckets[i], 0), h.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = lo
			}
			sum += float64(n) * (lo + hi) / 2
		}
		return sum
	}
	return math.NaN()
}
