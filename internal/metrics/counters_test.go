package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("steps_total", "walk steps")
	g := r.NewGauge("acceptance_rate", "fraction accepted")
	r.NewGaugeFunc("chains", "pool size", func() float64 { return 4 })

	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("counter = %d", c.Value())
	}
	g.Set(0.25)
	if g.Value() != 0.25 {
		t.Fatalf("gauge = %v", g.Value())
	}

	var sb strings.Builder
	r.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE steps_total counter", "steps_total 10",
		"# TYPE acceptance_rate gauge", "acceptance_rate 0.25",
		"# TYPE chains gauge", "chains 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Deterministic ordering: sorted by name.
	if strings.Index(out, "acceptance_rate") > strings.Index(out, "steps_total") {
		t.Error("metrics not sorted by name")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("x", "")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration should panic")
		}
	}()
	r.NewCounter("x", "")
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("n", "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
}

func TestAUCSteps(t *testing.T) {
	tr := &Trace{}
	tr.Add(Point{Steps: 0, Loss: 1.0})
	tr.Add(Point{Steps: 100, Loss: 0.5})
	tr.Add(Point{Steps: 200, Loss: 0.5})
	want := 100*0.75 + 100*0.5
	if got := tr.AUCSteps(); got != want {
		t.Fatalf("AUCSteps = %v, want %v", got, want)
	}
	if (&Trace{}).AUCSteps() != 0 {
		t.Error("empty trace AUCSteps should be 0")
	}
}
