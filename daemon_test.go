package factordb

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// The tests in this file drive a real factordbd process: built from
// ./cmd/factordbd once per test binary, started on free loopback ports,
// and SIGKILLed where the scenario calls for process death. They run
// under -short too — at -tokens 400 the daemon is healthy within a
// fraction of a second, and they are the repository's only check that a
// kill -9 loses no committed write.

var (
	daemonBuild    sync.Once
	daemonDir      string
	daemonBin      string
	daemonBuildErr error

	// daemonHTTP bounds every request, so a wedged daemon fails the test
	// instead of hanging it.
	daemonHTTP = &http.Client{Timeout: time.Minute}
)

func TestMain(m *testing.M) {
	code := m.Run()
	if daemonDir != "" {
		os.RemoveAll(daemonDir)
	}
	os.Exit(code)
}

// factordbdBinary builds ./cmd/factordbd with the go tool of the
// toolchain running the tests, once per test binary.
func factordbdBinary(t *testing.T) string {
	t.Helper()
	daemonBuild.Do(func() {
		if daemonDir, daemonBuildErr = os.MkdirTemp("", "factordbd-test-"); daemonBuildErr != nil {
			return
		}
		daemonBin = filepath.Join(daemonDir, "factordbd")
		gotool := filepath.Join(runtime.GOROOT(), "bin", "go")
		out, err := exec.Command(gotool, "build", "-o", daemonBin, "./cmd/factordbd").CombinedOutput()
		if err != nil {
			daemonBuildErr = fmt.Errorf("go build ./cmd/factordbd: %v\n%s", err, out)
		}
	})
	if daemonBuildErr != nil {
		t.Fatal(daemonBuildErr)
	}
	return daemonBin
}

// freeAddr returns a loopback address no listener holds right now.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// daemon is one running factordbd process.
type daemon struct {
	cmd    *exec.Cmd
	exited chan struct{} // closed once the process has been reaped
	stderr *syncBuffer   // every log line the process wrote
	base   string        // public listener, e.g. http://127.0.0.1:40123
	debug  string        // debug listener (-debug-addr)
}

// startDaemon launches factordbd with args on two fresh loopback ports
// and waits for /healthz; a process that exits first fails the test with
// its stderr. The process is killed at test end if still running.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	addr, dbg := freeAddr(t), freeAddr(t)
	d := &daemon{
		exited: make(chan struct{}),
		stderr: &syncBuffer{},
		base:   "http://" + addr,
		debug:  "http://" + dbg,
	}
	d.cmd = exec.Command(factordbdBinary(t), append([]string{"-addr", addr, "-debug-addr", dbg}, args...)...)
	d.cmd.Stderr = d.stderr
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		_ = d.cmd.Wait() // the exit status of a killed daemon says nothing
		close(d.exited)
	}()
	t.Cleanup(d.kill)

	deadline := time.Now().Add(60 * time.Second)
	for {
		select {
		case <-d.exited:
			t.Fatalf("factordbd exited before becoming healthy (%v):\n%s", d.cmd.ProcessState, d.stderr.String())
		default:
		}
		if resp, err := daemonHTTP.Get(d.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("factordbd not healthy after 60s:\n%s", d.stderr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// kill SIGKILLs the process — no shutdown hook runs, no final flush
// happens — and reaps it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // fails only when the process already exited
	<-d.exited
}

// getJSON decodes the 200 answer to GET url into dst.
func getJSON(t *testing.T, url string, dst any) {
	t.Helper()
	resp, err := daemonHTTP.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// postJSON posts body as JSON to url and decodes the 200 answer into dst.
func postJSON(t *testing.T, url string, body, dst any) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := daemonHTTP.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e) // best effort: the status already fails the test
		t.Fatalf("POST %s %s: %s: %s", url, data, resp.Status, e.Error)
	}
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
}

// queryMarginals estimates Query 1's per-tuple marginals over HTTP,
// uncached at a fixed sample budget, keyed by the rendered tuple.
func (d *daemon) queryMarginals(t *testing.T) map[string]float64 {
	t.Helper()
	var resp queryResponse
	postJSON(t, d.base+"/query", queryRequest{SQL: Query1, Samples: 64, NoCache: true}, &resp)
	out := make(map[string]float64, len(resp.Tuples))
	for _, tu := range resp.Tuples {
		out[strings.Join(tu.Values, "\x1f")] = tu.P
	}
	return out
}

// compareMarginals scores two estimates over the union of their answer
// tuples; a tuple absent from one side counts as probability zero there.
func compareMarginals(a, b map[string]float64) (maxDelta, meanDelta float64, n int) {
	keys := make(map[string]struct{}, len(a)+len(b))
	for k := range a {
		keys[k] = struct{}{}
	}
	for k := range b {
		keys[k] = struct{}{}
	}
	var sum float64
	for k := range keys {
		d := math.Abs(a[k] - b[k])
		sum += d
		maxDelta = math.Max(maxDelta, d)
	}
	if n = len(keys); n > 0 {
		meanDelta = sum / float64(n)
	}
	return maxDelta, meanDelta, n
}

// TestDaemonKillRecovery commits writes to a durable factordbd with
// fsync=always, SIGKILLs it, restarts it on the same data directory, and
// requires the write epoch, the recovery report on /healthz and /statusz,
// and Query 1's marginals to survive. The first run also validates the
// daemon's JSON slow-query log against its debug listener.
func TestDaemonKillRecovery(t *testing.T) {
	args := []string{
		"-tokens", "400", "-steps", "100", "-chains", "2",
		"-data-dir", t.TempDir(), "-fsync", "always",
		"-log-format", "json", "-slow-query", "1ns",
	}
	d := startDaemon(t, args...)
	const writes = 6
	for i := 1; i <= writes; i++ {
		var res execResponse
		postJSON(t, d.base+"/exec", execRequest{
			SQL: fmt.Sprintf("UPDATE TOKEN SET STRING = 'crash-%d' WHERE TOK_ID = %d", i, i),
		}, &res)
	}
	var pre healthResponse
	getJSON(t, d.base+"/healthz", &pre)
	if pre.WriteEpoch != writes {
		t.Fatalf("write_epoch %d after %d committed writes", pre.WriteEpoch, writes)
	}
	before := d.queryMarginals(t)
	checkSlowQueryLog(t, d)

	d.kill()
	re := startDaemon(t, args...)

	var post healthResponse
	getJSON(t, re.base+"/healthz", &post)
	if post.Durability == nil {
		t.Fatal("restarted daemon reports no durability block on /healthz")
	}
	dur := post.Durability
	t.Logf("write_epoch: pre-kill %d, post-restart %d; durability %+v", pre.WriteEpoch, post.WriteEpoch, *dur)
	if post.WriteEpoch != pre.WriteEpoch || dur.RecoveredEpoch != pre.WriteEpoch {
		t.Fatalf("after SIGKILL: write_epoch %d, recovered_epoch %d, want the pre-kill epoch %d",
			post.WriteEpoch, dur.RecoveredEpoch, pre.WriteEpoch)
	}

	// The startup trace on /statusz tells the same recovery story.
	var st Status
	getJSON(t, re.base+"/statusz", &st)
	if st.StartupTrace == nil {
		t.Fatal("restarted daemon reports no startup_trace on /statusz")
	}
	var replayed string // stays "" without a wal_replay span
	for _, sp := range st.StartupTrace.Spans {
		if sp.Name == "wal_replay" {
			replayed = sp.Attrs["replayed_records"]
		}
	}
	if replayed != fmt.Sprint(dur.ReplayedRecords) {
		t.Errorf("startup_trace wal_replay replayed_records=%q, durability says %d",
			replayed, dur.ReplayedRecords)
	}

	// Marginals are MCMC estimates, so agreement is statistical: both
	// runs equilibrate on the same recovered evidence.
	maxDelta, meanDelta, n := compareMarginals(before, re.queryMarginals(t))
	t.Logf("%d answer tuples compared: mean |Δp| %.4f, max |Δp| %.4f", n, meanDelta, maxDelta)
	if n == 0 {
		t.Fatal("Query 1 returned no answer tuples before or after the kill")
	}
	if meanDelta > 0.25 {
		t.Errorf("post-restart marginals drifted: mean |Δp| %.4f > 0.25", meanDelta)
	}
}

// daemonHeaderTimeout mirrors cmd/factordbd's readHeaderTimeout.
const daemonHeaderTimeout = 5 * time.Second

// TestDaemonDropsStalledHeaders holds factordbd to its header deadline:
// a client that sends half a request line and stalls is disconnected
// within the deadline plus slack, and the daemon goes on serving.
func TestDaemonDropsStalledHeaders(t *testing.T) {
	d := startDaemon(t, "-tokens", "400", "-steps", "100", "-chains", "1")
	conn, err := net.Dial("tcp", strings.TrimPrefix(d.base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("GET /healthz HT")); err != nil {
		t.Fatal(err)
	}
	const slack = 5 * time.Second
	conn.SetReadDeadline(start.Add(daemonHeaderTimeout + slack))
	// The server may answer the torn request line with a 400 before it
	// closes; the read ends at the close.
	reply, err := io.ReadAll(conn)
	elapsed := time.Since(start)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("a stalled client still held its connection after %v", elapsed)
	}
	if len(reply) > 0 && !strings.HasPrefix(string(reply), "HTTP/1.1 400 ") {
		t.Errorf("a half-sent request got %q back, want nothing or a 400", reply)
	}
	t.Logf("stalled client disconnected after %v (reply %q, %v)", elapsed.Round(time.Millisecond), reply, err)
	if elapsed < daemonHeaderTimeout-time.Second {
		t.Errorf("stalled client disconnected after %v, before the %v header deadline", elapsed, daemonHeaderTimeout)
	}
	var h healthResponse
	getJSON(t, d.base+"/healthz", &h)
}

// slowRecord is the slow_query log record, as factordbd's JSON handler
// writes it.
type slowRecord struct {
	Msg         string           `json:"msg"`
	TraceID     string           `json:"trace_id"`
	Kind        string           `json:"kind"`
	SQL         string           `json:"sql"`
	WallNS      int64            `json:"wall_ns"`
	ThresholdNS int64            `json:"threshold_ns"`
	SpanNS      map[string]int64 `json:"span_ns"`
}

// checkSlowQueryLog validates everything d wrote to stderr under
// -log-format json -slow-query: every line is JSON, every slow_query
// record is well formed with spans tiling its wall time, and the newest
// trace IDs resolve on the debug listener's /debug/traces — the slow-query
// log and the trace ring share one ID space.
func checkSlowQueryLog(t *testing.T, d *daemon) {
	t.Helper()
	// The daemon is still running: leave out a record it is mid-way
	// through writing.
	log := d.stderr.String()
	log = log[:strings.LastIndexByte(log, '\n')+1]
	var slow []slowRecord
	for i, raw := range strings.Split(log, "\n") {
		line := i + 1
		if raw == "" {
			continue
		}
		var rec slowRecord
		if err := json.Unmarshal([]byte(raw), &rec); err != nil {
			t.Fatalf("stderr line %d is not JSON (%v): %s", line, err, raw)
		}
		if rec.Msg != "slow_query" {
			continue
		}
		var sum int64
		for name, ns := range rec.SpanNS {
			if ns < 0 {
				t.Errorf("line %d: span %s has negative duration %d", line, name, ns)
			}
			sum += ns
		}
		switch {
		case len(rec.TraceID) != 32 || strings.Trim(rec.TraceID, "0123456789abcdef") != "":
			t.Errorf("line %d: trace_id %q is not a 32-hex W3C trace id", line, rec.TraceID)
		case rec.Kind != "query" && rec.Kind != "exec":
			t.Errorf("line %d: kind %q is neither query nor exec", line, rec.Kind)
		case rec.SQL == "":
			t.Errorf("line %d: no sql", line)
		case rec.ThresholdNS <= 0 || rec.WallNS < rec.ThresholdNS:
			t.Errorf("line %d: wall_ns %d, threshold_ns %d", line, rec.WallNS, rec.ThresholdNS)
		case len(rec.SpanNS) == 0:
			t.Errorf("line %d: no span_ns breakdown", line)
		case sum > rec.WallNS:
			t.Errorf("line %d: spans sum to %dns, over wall_ns %d", line, sum, rec.WallNS)
		}
		slow = append(slow, rec)
	}
	if len(slow) == 0 {
		t.Fatalf("no slow_query records with -slow-query 1ns:\n%s", log)
	}

	var traces []QueryTrace
	getJSON(t, d.debug+"/debug/traces", &traces)
	ring := make(map[string]bool, len(traces))
	for _, tr := range traces {
		ring[tr.TraceID] = true
	}
	newest := slow[max(0, len(slow)-10):]
	for _, rec := range newest {
		if ring[rec.TraceID] {
			return
		}
	}
	t.Errorf("none of the %d newest slow_query trace IDs resolve on /debug/traces (%d ring entries)",
		len(newest), len(ring))
}
