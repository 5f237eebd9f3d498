package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// This file adds labeled metric vectors to the registry: families of
// counters/gauges distinguished by label values (per-chain, per-view),
// rendered as name{label="value",...} series under one HELP/TYPE header.
// Children are resolved once (With) and then updated lock-free, so the
// chain hot loop pays one atomic per update exactly like plain metrics.

// labelString renders a label set in Prometheus series syntax; values are
// escaped per the text exposition format.
func labelString(names, values []string) string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(values[i]))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// vec is the shared child table of labeled metric families.
type vec[T any] struct {
	name, help string
	labels     []string
	mu         sync.Mutex
	children   map[string]T // label string -> child
	mk         func() T
}

func (v *vec[T]) with(values []string) T {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("metrics: %s takes %d label values, got %d", v.name, len(v.labels), len(values)))
	}
	key := labelString(v.labels, values)
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[key]
	if !ok {
		c = v.mk()
		v.children[key] = c
	}
	return c
}

// sortedKeys snapshots the child table for deterministic rendering.
func (v *vec[T]) sorted() ([]string, map[string]T) {
	v.mu.Lock()
	defer v.mu.Unlock()
	keys := make([]string, 0, len(v.children))
	snap := make(map[string]T, len(v.children))
	for k, c := range v.children {
		keys = append(keys, k)
		snap[k] = c
	}
	sort.Strings(keys)
	return keys, snap
}

// CounterVec is a family of monotone counters keyed by label values.
type CounterVec struct {
	v *vec[*Counter]
}

// With returns (creating on first use) the child counter for the label
// values, in the order the vector's label names were declared.
func (c *CounterVec) With(values ...string) *Counter { return c.v.with(values) }

func (c *CounterVec) write(w io.Writer) {
	writeHeader(w, c.v.name, c.v.help, "counter")
	keys, snap := c.v.sorted()
	for _, k := range keys {
		fmt.Fprintf(w, "%s%s %d\n", c.v.name, k, snap[k].Value())
	}
}

// NewCounterVec registers a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	c := &CounterVec{v: &vec[*Counter]{
		name: name, help: help, labels: labels,
		children: make(map[string]*Counter),
		mk:       func() *Counter { return &Counter{name: name} },
	}}
	r.register(name, c)
	return c
}

// HistogramVec is a family of histograms keyed by label values — e.g.
// write latency by outcome. Children share one bucket layout; each child
// renders its _bucket series with the family labels plus le.
type HistogramVec struct {
	v *vec[*Histogram]
}

// With returns (creating on first use) the child histogram for the label
// values.
func (h *HistogramVec) With(values ...string) *Histogram { return h.v.with(values) }

func (h *HistogramVec) write(w io.Writer) {
	writeHeader(w, h.v.name, h.v.help, "histogram")
	keys, snap := h.v.sorted()
	for _, k := range keys {
		child := snap[k]
		bounds, cum := child.BucketCounts()
		for i, b := range bounds {
			fmt.Fprintf(w, "%s_bucket%s %d\n", h.v.name, spliceLabel(k, "le", formatBound(b)), cum[i])
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", h.v.name, spliceLabel(k, "le", "+Inf"), cum[len(cum)-1])
		fmt.Fprintf(w, "%s_sum%s %v\n", h.v.name, k, child.Sum())
		fmt.Fprintf(w, "%s_count%s %d\n", h.v.name, k, cum[len(cum)-1])
	}
}

// spliceLabel appends one more label pair into an already rendered label
// set (the histogram's le bucket bound).
func spliceLabel(rendered, name, value string) string {
	inner := strings.TrimSuffix(rendered, "}")
	if inner == "{" {
		return fmt.Sprintf("{%s=%q}", name, value)
	}
	return fmt.Sprintf("%s,%s=%q}", inner, name, value)
}

// NewHistogramVec registers a labeled histogram family with the given
// bucket upper bounds (DefBuckets when nil).
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	h := &HistogramVec{v: &vec[*Histogram]{
		name: name, help: help, labels: labels,
		children: make(map[string]*Histogram),
		mk:       func() *Histogram { return newHistogram(name, help, buckets) },
	}}
	r.register(name, h)
	return h
}

// LabeledValue is one series of a MultiGaugeFunc scrape: label values in
// declaration order plus the value.
type LabeledValue struct {
	Labels []string
	Value  float64
}

// MultiGaugeFunc is a labeled gauge family whose series set and values
// are computed at scrape time — the fit for quantities derived from
// dynamic state, like per-view convergence diagnostics where views come
// and go with the queries subscribing to them.
type MultiGaugeFunc struct {
	name, help string
	labels     []string
	fn         func() []LabeledValue
}

func (m *MultiGaugeFunc) write(w io.Writer) {
	writeHeader(w, m.name, m.help, "gauge")
	vals := m.fn()
	lines := make([]string, 0, len(vals))
	for _, lv := range vals {
		if len(lv.Labels) != len(m.labels) {
			panic(fmt.Sprintf("metrics: %s scrape returned %d label values, want %d",
				m.name, len(lv.Labels), len(m.labels)))
		}
		lines = append(lines, fmt.Sprintf("%s%s %v", m.name, labelString(m.labels, lv.Labels), lv.Value))
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintf(w, "%s\n", l)
	}
}

// NewMultiGaugeFunc registers a scrape-time labeled gauge family.
func (r *Registry) NewMultiGaugeFunc(name, help string, labels []string, fn func() []LabeledValue) *MultiGaugeFunc {
	m := &MultiGaugeFunc{name: name, help: help, labels: labels, fn: fn}
	r.register(name, m)
	return m
}
