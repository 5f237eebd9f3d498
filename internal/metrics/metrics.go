// Package metrics implements the evaluation measures of Section 5.2:
// element-wise squared-error loss between estimated and ground-truth
// query marginals, normalized loss traces over time, and the
// time-to-half-loss summary used for the scalability plot (Figure 4a).
package metrics

import (
	"math"
	"time"
)

// SquaredError returns Σ_t (est[t] − truth[t])² over the union of keys of
// the two marginal maps (absent keys read as probability 0).
func SquaredError(est, truth map[string]float64) float64 {
	var loss float64
	for k, p := range truth {
		d := est[k] - p
		loss += d * d
	}
	for k, p := range est {
		if _, ok := truth[k]; !ok {
			loss += p * p
		}
	}
	return loss
}

// Point is one observation of a loss trace.
type Point struct {
	Elapsed time.Duration // wall time since the trace began
	Samples int64         // query samples collected
	Loss    float64
}

// Trace is a loss-over-time series for one evaluator run.
type Trace struct {
	Points []Point
}

// Add appends an observation.
func (tr *Trace) Add(p Point) { tr.Points = append(tr.Points, p) }

// Initial returns the first recorded loss (0 if empty).
func (tr *Trace) Initial() float64 {
	if len(tr.Points) == 0 {
		return 0
	}
	return tr.Points[0].Loss
}

// Final returns the last recorded loss (0 if empty).
func (tr *Trace) Final() float64 {
	if len(tr.Points) == 0 {
		return 0
	}
	return tr.Points[len(tr.Points)-1].Loss
}

// TimeToHalve returns the elapsed time of the first point whose loss is at
// most half the initial loss, mirroring the paper's "time taken to half
// the squared error from the initial single-sample approximation". The
// boolean is false when the trace never halves.
func (tr *Trace) TimeToHalve() (time.Duration, bool) {
	if len(tr.Points) == 0 {
		return 0, false
	}
	target := tr.Points[0].Loss / 2
	for _, p := range tr.Points {
		if p.Loss <= target {
			return p.Elapsed, true
		}
	}
	return 0, false
}

// Normalized returns a copy of the trace with losses scaled so the maximum
// point is 1 (the paper's normalized squared loss, which lets multiple
// queries share one plot). A trace with all-zero loss is returned as-is.
func (tr *Trace) Normalized() *Trace {
	max := 0.0
	for _, p := range tr.Points {
		if p.Loss > max {
			max = p.Loss
		}
	}
	out := &Trace{Points: make([]Point, len(tr.Points))}
	copy(out.Points, tr.Points)
	if max == 0 {
		return out
	}
	for i := range out.Points {
		out.Points[i].Loss /= max
	}
	return out
}

// AUC returns the area under the loss-time curve (trapezoidal), a scalar
// summary used by the ablation benchmarks: lower is better.
func (tr *Trace) AUC() float64 {
	var area float64
	for i := 1; i < len(tr.Points); i++ {
		a, b := tr.Points[i-1], tr.Points[i]
		dt := b.Elapsed.Seconds() - a.Elapsed.Seconds()
		area += dt * (a.Loss + b.Loss) / 2
	}
	return area
}

// MaxAbsDiff returns the largest absolute difference between two marginal
// maps over the union of their keys.
func MaxAbsDiff(a, b map[string]float64) float64 {
	worst := 0.0
	for k, v := range a {
		if d := math.Abs(v - b[k]); d > worst {
			worst = d
		}
	}
	for k, v := range b {
		if _, ok := a[k]; !ok && math.Abs(v) > worst {
			worst = math.Abs(v)
		}
	}
	return worst
}
