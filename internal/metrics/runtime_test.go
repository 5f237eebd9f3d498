package metrics

import (
	"bufio"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestGoRuntimeSeries scrapes the runtime series and checks each is a
// real reading, not a placeholder: a goroutine count of at least one, a
// live heap, and GC cycle and pause totals that a forced collection
// makes positive.
func TestGoRuntimeSeries(t *testing.T) {
	r := NewRegistry()
	RegisterGoRuntime(r)
	runtime.GC()

	var sb strings.Builder
	r.WriteText(&sb)
	got := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, _ := strings.Cut(line, " ")
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("unparsable sample %q", line)
		}
		got[name] = v
	}
	for _, name := range []string{"go_goroutines", "go_gc_heap_live_bytes", "go_gc_cycles_total", "go_gc_pause_seconds_total"} {
		v, ok := got[name]
		if !ok {
			t.Errorf("%s missing from the exposition:\n%s", name, sb.String())
			continue
		}
		if !(v > 0) {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}
	if got["go_gc_pause_seconds_total"] > 60 {
		t.Errorf("go_gc_pause_seconds_total = %v s, implausible for a unit test", got["go_gc_pause_seconds_total"])
	}
}
