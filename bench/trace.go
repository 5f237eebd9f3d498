package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// hspan is one harness span: a call into a layer's public function (or
// an engine span re-parented under the op that caused it). Spans of one
// op share Op; Parent is the index of the enclosing span, -1 for a root.
type hspan struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
}

// tracer buffers spans in memory for the traced run and writes them out
// when the benchmark ends. A nil tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []hspan
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, hspan{Name: name, StartNS: time.Since(t.t0).Nanoseconds(), Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].EndNS = time.Since(t.t0).Nanoseconds()
}

// add records a span whose interval was measured elsewhere.
func (t *tracer) add(name string, start, end time.Time, parent, op int) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, hspan{
		Name: name, StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(),
		Parent: parent, Op: op,
	})
}

// time runs fn inside a root span named name and returns its duration.
func (t *tracer) time(name string, fn func()) time.Duration {
	id := t.begin(name, -1, 0)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

func (t *tracer) write(cfg *runConfig) error {
	if t == nil {
		return nil
	}
	dir := filepath.Join(cfg.WorkDir, "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace_%s.json", cfg.Workload))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Workload string  `json:"workload"`
		Seed     int64   `json:"seed"`
		Spans    []hspan `json:"spans"`
	}{cfg.Workload, cfg.Seed, t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
