package factordb

import (
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"factordb/internal/exp"
)

// raceEnabled reports a race-detector build (see race_test.go), where
// allocation counts are not reproducible.
var raceEnabled bool

// discardWriter is a reusable http.ResponseWriter that keeps only the
// status and the body length.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header  { return w.h }
func (w *discardWriter) WriteHeader(code int) { w.status = code }
func (w *discardWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}
func (w *discardWriter) WriteString(s string) (int, error) {
	w.n += len(s)
	return len(s), nil
}

// rewindBody is a request body that can be replayed without allocating.
type rewindBody struct{ strings.Reader }

func (*rewindBody) Close() error { return nil }

// TestHTTPHitAllocBudget is the allocation gate of an untraced result-
// cache hit served by Handler (testdata/alloc_budget.txt): request decode,
// plan-cache probe, result-cache hit and the response write, with no
// socket. The answer's JSON is encoded once, at the miss, so a hit of
// Query 1 (23 tuples) must cost exactly what a hit of Query 4 (3 tuples)
// does. Counts only, so this is a gate, not a trend.
func TestHTTPHitAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget gate skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	budget := readAllocBudget(t)
	db, err := Open(NER(NERConfig{Tokens: 5000, Seed: 1}),
		WithMode(ModeServed), WithChains(1), WithSteps(100), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	h := db.Handler()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	// Query 4 is sent on one line: a JSON string with escapes (its
	// newlines) costs the request decoder one more allocation, which is
	// the request's cost, not the answer's.
	q4 := strings.Join(strings.Fields(exp.Query4), " ")
	var counts []float64
	for _, q := range []struct{ tag, sql string }{{"q1", exp.Query1}, {"q4", q4}} {
		body := `{"sql":` + strconv.Quote(q.sql) + `,"samples":16}`
		var rb rewindBody
		req, err := http.NewRequest(http.MethodPost, "/query", &rb)
		if err != nil {
			t.Fatal(err)
		}
		w := &discardWriter{h: http.Header{}}
		serve := func() {
			rb.Reset(body)
			req.Body = &rb
			w.status, w.n = 0, 0
			h.ServeHTTP(w, req)
		}
		serve() // the miss that evaluates and encodes the answer
		serve()
		size := w.n
		got := testing.AllocsPerRun(50, func() {
			serve()
			if w.status != http.StatusOK || w.n != size {
				t.Fatalf("hit: status %d, %d-byte body; the first hit wrote %d", w.status, w.n, size)
			}
		})
		t.Logf("http_hit_%s: %v allocs (%d-byte body)", q.tag, got, size)
		counts = append(counts, got)
	}
	if counts[0] != counts[1] {
		t.Errorf("a hit of Query 1 allocates %v, of Query 4 %v: the cost grows with the answer", counts[0], counts[1])
	}
	if max, ok := budget["http_hit"]; !ok || counts[0] > max {
		t.Errorf("an HTTP cache hit allocates %v, budget %v", counts[0], max)
	}
}

// readAllocBudget reads the named ceilings from testdata/alloc_budget.txt.
func readAllocBudget(t *testing.T) map[string]float64 {
	t.Helper()
	data, err := os.ReadFile("testdata/alloc_budget.txt")
	if err != nil {
		t.Fatalf("reading alloc budget: %v", err)
	}
	budget := make(map[string]float64)
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		n, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if !ok || err != nil {
			t.Fatalf("parsing alloc budget line %q", line)
		}
		budget[name] = n
	}
	return budget
}
