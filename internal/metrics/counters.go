package metrics

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// This file provides the operational counters behind the factordbd
// /metrics endpoint: lock-free counters and gauges updated from the
// sampling hot loop, pull-style gauges computed at scrape time, and a
// latency summary. Rendering follows the Prometheus text exposition
// format so standard scrapers work unmodified.

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the exposition to stay monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) write(w io.Writer) {
	writeHeader(w, c.name, c.help, "counter")
	fmt.Fprintf(w, "%s %d\n", c.name, c.Value())
}

// GaugeFunc is a gauge whose value is computed at scrape time, for
// quantities derived from other state (rates, pool sizes).
type GaugeFunc struct {
	name, help string
	fn         func() float64
}

func (g *GaugeFunc) write(w io.Writer) {
	writeHeader(w, g.name, g.help, "gauge")
	fmt.Fprintf(w, "%s %v\n", g.name, g.fn())
}

func writeHeader(w io.Writer, name, help, typ string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

type renderable interface {
	write(w io.Writer)
}

// Registry holds named metrics and renders them in the Prometheus text
// format. Registration is expected at startup; rendering may happen
// concurrently with metric updates.
type Registry struct {
	mu    sync.Mutex
	byNam map[string]renderable
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byNam: make(map[string]renderable)}
}

func (r *Registry) register(name string, m renderable) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byNam[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate metric %q", name))
	}
	r.byNam[name] = m
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(name, c)
	return c
}

// NewGaugeFunc registers a gauge computed by fn at scrape time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) *GaugeFunc {
	g := &GaugeFunc{name: name, help: help, fn: fn}
	r.register(name, g)
	return g
}

// WriteText renders every registered metric, sorted by name for
// deterministic output.
func (r *Registry) WriteText(w io.Writer) {
	r.mu.Lock()
	names := make([]string, 0, len(r.byNam))
	for n := range r.byNam {
		names = append(names, n)
	}
	items := make([]renderable, len(names))
	sort.Strings(names)
	for i, n := range names {
		items[i] = r.byNam[n]
	}
	r.mu.Unlock()
	for _, m := range items {
		m.write(w)
	}
}
