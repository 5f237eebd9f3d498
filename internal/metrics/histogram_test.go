package metrics

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestHistogramBucketsCountAndSum(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat_seconds", "latency", []float64{0.1, 0.2, 0.5, 1})

	// 100 observations uniform on (0, 1]; a bound is inclusive (le).
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-50.5) > 1e-9 {
		t.Fatalf("sum = %v", h.Sum())
	}

	// Overflow observations land in +Inf only.
	h.Observe(30)
	_, cum := h.BucketCounts()
	want := []int64{10, 20, 50, 100, 101}
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("cumulative buckets = %v, want %v", cum, want)
		}
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("q_seconds", "query latency", []float64{0.5, 2})
	h.Observe(0.1)
	h.Observe(1)
	h.Observe(10)

	var sb strings.Builder
	r.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{
		"# HELP q_seconds query latency",
		"# TYPE q_seconds histogram",
		`q_seconds_bucket{le="0.5"} 1`,
		`q_seconds_bucket{le="2"} 2`,
		`q_seconds_bucket{le="+Inf"} 3`,
		"q_seconds_sum 11.1",
		"q_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Cumulative buckets must be monotone, ending at _count.
	_, cum := h.BucketCounts()
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("bucket counts not monotone: %v", cum)
		}
	}
	if cum[len(cum)-1] != h.Count() {
		t.Fatalf("+Inf bucket %d != count %d", cum[len(cum)-1], h.Count())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram("x", "", []float64{1, 2, 3})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(g%4) + 0.5)
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d", h.Count())
	}
	_, cum := h.BucketCounts()
	if cum[len(cum)-1] != 8000 {
		t.Fatalf("+Inf cumulative = %d", cum[len(cum)-1])
	}
}

func TestExponentialBuckets(t *testing.T) {
	got := ExponentialBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("bucket %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("chain_steps_total", "per-chain steps", "chain")

	c0 := cv.With("0")
	c0.Add(5)
	cv.With("1").Inc()
	if cv.With("0") != c0 {
		t.Fatal("With should return the same child for the same labels")
	}

	var sb strings.Builder
	r.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE chain_steps_total counter",
		`chain_steps_total{chain="0"} 5`,
		`chain_steps_total{chain="1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// One header per family, not per child.
	if n := strings.Count(out, "# TYPE chain_steps_total counter"); n != 1 {
		t.Errorf("family header rendered %d times", n)
	}
}

// TestHistogramVec pins the labeled-histogram exposition: one HELP/TYPE
// header for the family, each child rendering its cumulative _bucket
// series with the le label spliced after the family labels, and _sum and
// _count per child.
func TestHistogramVec(t *testing.T) {
	r := NewRegistry()
	hv := r.NewHistogramVec("exec_seconds", "write latency by outcome", []float64{0.1, 1}, "outcome")
	ok := hv.With("ok")
	ok.Observe(0.05)
	ok.Observe(0.5)
	ok.Observe(5)
	hv.With("error").Observe(0.05)
	if hv.With("ok") != ok {
		t.Fatal("With should return the same child for the same labels")
	}

	var sb strings.Builder
	r.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE exec_seconds histogram",
		`exec_seconds_bucket{outcome="ok",le="0.1"} 1`,
		`exec_seconds_bucket{outcome="ok",le="1"} 2`,
		`exec_seconds_bucket{outcome="ok",le="+Inf"} 3`,
		`exec_seconds_count{outcome="ok"} 3`,
		`exec_seconds_sum{outcome="ok"} 5.55`,
		`exec_seconds_bucket{outcome="error",le="+Inf"} 1`,
		`exec_seconds_count{outcome="error"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE exec_seconds histogram"); n != 1 {
		t.Errorf("family header rendered %d times", n)
	}
}

func TestSpliceLabel(t *testing.T) {
	if got := spliceLabel(`{outcome="ok"}`, "le", "0.1"); got != `{outcome="ok",le="0.1"}` {
		t.Fatalf("spliceLabel = %s", got)
	}
	if got := spliceLabel("{}", "le", "+Inf"); got != `{le="+Inf"}` {
		t.Fatalf("spliceLabel on empty set = %s", got)
	}
}

func TestMultiGaugeFunc(t *testing.T) {
	r := NewRegistry()
	r.NewMultiGaugeFunc("view_rhat", "split-Rhat per view", []string{"view"}, func() []LabeledValue {
		return []LabeledValue{
			{Labels: []string{"bfp1:b"}, Value: 1.1},
			{Labels: []string{"bfp1:a"}, Value: 1.0},
		}
	})
	var sb strings.Builder
	r.WriteText(&sb)
	out := sb.String()
	ia := strings.Index(out, `view_rhat{view="bfp1:a"} 1`)
	ib := strings.Index(out, `view_rhat{view="bfp1:b"} 1.1`)
	if ia < 0 || ib < 0 {
		t.Fatalf("missing series:\n%s", out)
	}
	if ia > ib {
		t.Error("series not sorted by label value")
	}
}

func TestLabelEscaping(t *testing.T) {
	if got := labelString([]string{"l"}, []string{`a"b\c` + "\n"}); got != `{l="a\"b\\c\n"}` {
		t.Fatalf("labelString = %s", got)
	}
}

func TestVecWrongArity(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("x_total", "", "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("wrong label arity should panic")
		}
	}()
	cv.With("only-one")
}

// TestRegistryDuplicateNamesPanicWithName pins that a duplicate
// registration of ANY metric kind panics and names the offender — a
// silently shadowed metric would report another subsystem's numbers.
func TestRegistryDuplicateNamesPanicWithName(t *testing.T) {
	r := NewRegistry()
	r.NewHistogram("dup_metric", "", nil)
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("duplicate registration should panic")
		}
		if !strings.Contains(strconv.Quote(toString(rec)), "dup_metric") {
			t.Fatalf("panic %v does not name the duplicate metric", rec)
		}
	}()
	r.NewCounterVec("dup_metric", "", "l")
}

func toString(v any) string {
	if s, ok := v.(string); ok {
		return s
	}
	return ""
}
