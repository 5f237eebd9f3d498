package ra

import (
	"testing"

	"factordb/internal/relstore"
)

// drainStream compiles-and-runs one pipeline, folding rows into a count
// so the consumer cost is identical across the compared variants.
func drainIter(it Iterator) int64 {
	var total int64
	it(func(_ relstore.Tuple, n int64) bool {
		total += n
		return true
	})
	return total
}

// BenchmarkAnalyzeOverhead puts a number on the EXPLAIN ANALYZE
// instrumentation: "disabled" is the production path (Stream — no
// recorder exists anywhere in the compiled closures), "enabled" is the
// fully instrumented pipeline. It is a printed figure, not a gate;
// TestStreamNeverReachesAnalyzeRecorder is the deterministic check that
// the disabled path stays uninstrumented.
func BenchmarkAnalyzeOverhead(b *testing.B) {
	db := benchWorld(20000)
	bound, err := Bind(db, benchPlan())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("disabled", func(b *testing.B) {
		b.ReportAllocs()
		it, _, err := Stream(bound)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			drainIter(it)
		}
	})
	b.Run("enabled", func(b *testing.B) {
		b.ReportAllocs()
		it, _, _, err := AnalyzeStream(bound)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			drainIter(it)
		}
	})
}

// TestStreamNeverReachesAnalyzeRecorder is the counted check behind the
// instrumentation design: Stream's pipeline carries no EXPLAIN ANALYZE
// recorder. A recorder compiled over the same bound plan stays at zero
// while Stream is drained, and a Stream drain allocates exactly what the
// raw compiled pipeline does — the instrumenting wrapper allocates per
// operator per run, so a Stream compiled through it fails here even with
// a private recorder. Draining the analyze iterator is the control: it
// moves both the counters and the allocation count.
func TestStreamNeverReachesAnalyzeRecorder(t *testing.T) {
	bound, err := Bind(benchWorld(2000), benchPlan())
	if err != nil {
		t.Fatal(err)
	}
	analyze, _, st, err := AnalyzeStream(bound)
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := Stream(bound)
	if err != nil {
		t.Fatal(err)
	}
	raw, _, err := compileStream(bound)
	if err != nil {
		t.Fatal(err)
	}

	rows := drainIter(raw)
	if rows == 0 {
		t.Fatal("bench plan yields no rows; the recorder check would be vacuous")
	}
	for i := 0; i < 3; i++ {
		if got := drainIter(plain); got != rows {
			t.Fatalf("Stream drain %d yielded %d rows, raw pipeline %d", i, got, rows)
		}
	}
	recorded := func() bool {
		for _, nd := range st.Nodes {
			if nd.Rows != 0 || nd.Yields != 0 {
				return true
			}
		}
		return st.Runs != 0
	}
	if recorded() {
		t.Fatalf("draining Stream moved the analyze recorder: runs=%d nodes=%+v", st.Runs, st.Nodes)
	}
	rawAllocs := testing.AllocsPerRun(3, func() { drainIter(raw) })
	if got := testing.AllocsPerRun(3, func() { drainIter(plain) }); got != rawAllocs {
		t.Errorf("a Stream drain allocates %v times, the raw pipeline %v", got, rawAllocs)
	}

	// Control: the analyze pipeline does reach its recorder and does pay
	// for its wrapper, so the checks above can fail.
	if got := drainIter(analyze); got != rows {
		t.Fatalf("analyze drain yielded %d rows, raw pipeline %d", got, rows)
	}
	if !recorded() {
		t.Fatal("control: draining the analyze iterator left its recorder at zero")
	}
	if got := testing.AllocsPerRun(3, func() { drainIter(analyze) }); got <= rawAllocs {
		t.Errorf("control: an analyze drain allocates %v times, not more than the raw pipeline's %v", got, rawAllocs)
	}
}
