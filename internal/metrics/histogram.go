package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"
)

// Histogram counts observations into cumulative buckets, rendered in the
// Prometheus text exposition as <name>_bucket{le="..."} series plus
// <name>_sum and <name>_count. Unlike a count/sum pair it supports quantile
// estimation at scrape (or report) time, which is what lets latency
// trajectories be compared across runs — a mean hides the tail that
// admission control and write burn-in actually move.
//
// Observe is lock-free (one atomic add per observation plus a CAS loop
// for the sum), so it is safe on the query hot path.
type Histogram struct {
	name, help string
	bounds     []float64      // sorted upper bounds, excluding +Inf
	counts     []atomic.Int64 // len(bounds)+1; last bucket is +Inf
	count      atomic.Int64
	sumBits    atomic.Uint64 // float64 bits, CAS-accumulated
	maxBits    atomic.Uint64 // float64 bits of the largest observation
}

// DefBuckets are the default latency buckets in seconds, matching the
// Prometheus client defaults so dashboards carry over.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// ExponentialBuckets returns count bucket bounds starting at start and
// multiplying by factor. start must be positive and factor > 1.
func ExponentialBuckets(start, factor float64, count int) []float64 {
	if start <= 0 || factor <= 1 || count < 1 {
		panic("metrics: ExponentialBuckets needs start > 0, factor > 1, count >= 1")
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

func newHistogram(name, help string, buckets []float64) *Histogram {
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	for i := 1; i < len(bounds); i++ {
		if bounds[i] == bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q has duplicate bucket bound %v", name, bounds[i]))
		}
	}
	return &Histogram{
		name:   name,
		help:   help,
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	// Binary-search the first bound >= v; the last slot is +Inf.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) && old != 0 {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 { return math.Float64frombits(h.maxBits.Load()) }

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// within the owning bucket, the same estimate PromQL's histogram_quantile
// computes. Observations beyond the last finite bound are attributed to
// the recorded maximum, so an all-overflow histogram still reports
// something honest. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(n)
	var cum int64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			cum += c
			continue
		}
		if float64(cum+c) >= rank {
			if i == len(h.bounds) {
				return h.Max() // +Inf bucket: best point estimate we have
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			v := lo + (hi-lo)*frac
			if max := h.Max(); max > 0 && v > max {
				v = max
			}
			return v
		}
		cum += c
	}
	return h.Max()
}

// BucketCounts returns (bounds, cumulative counts) snapshots, the
// trailing count being the +Inf bucket (== Count up to racing updates).
func (h *Histogram) BucketCounts() ([]float64, []int64) {
	cum := make([]int64, len(h.counts))
	var total int64
	for i := range h.counts {
		total += h.counts[i].Load()
		cum[i] = total
	}
	return append([]float64(nil), h.bounds...), cum
}

func (h *Histogram) write(w io.Writer) {
	writeHeader(w, h.name, h.help, "histogram")
	bounds, cum := h.BucketCounts()
	for i, b := range bounds {
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.name, formatBound(b), cum[i])
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, cum[len(cum)-1])
	fmt.Fprintf(w, "%s_sum %v\n", h.name, h.Sum())
	fmt.Fprintf(w, "%s_count %d\n", h.name, cum[len(cum)-1])
}

// formatBound renders a bucket bound the way Prometheus clients do:
// shortest representation that round-trips.
func formatBound(b float64) string {
	return fmt.Sprintf("%v", b)
}

// NewHistogram registers and returns a histogram with the given bucket
// upper bounds (DefBuckets when nil).
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	h := newHistogram(name, help, buckets)
	r.register(name, h)
	return h
}
