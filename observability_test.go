package factordb

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestMetricsExposition is the Prometheus text-format conformance check
// over a live served engine's /metrics page: HELP precedes TYPE for every
// family, family names are unique, histogram buckets are cumulative and
// monotone, and the +Inf bucket equals the count.
func TestMetricsExposition(t *testing.T) {
	db := sharedDB(t, ModeServed)
	// Evaluate one query first so the latency histogram has observations.
	rows, err := db.Query(context.Background(), Query1, Samples(4), NoCache())
	if err != nil {
		t.Fatal(err)
	}
	rows.Close()

	srv := httptest.NewServer(db.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}

	type family struct {
		help, typ bool
		samples   int
	}
	families := map[string]*family{}
	var lastHelp string
	// bucketsOf[name] collects the histogram's cumulative bucket counts
	// in exposition order; countOf[name] its _count sample.
	bucketsOf := map[string][]float64{}
	countOf := map[string]float64{}

	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			name := strings.Fields(line)[2]
			if families[name] != nil {
				t.Fatalf("duplicate HELP for %q", name)
			}
			families[name] = &family{help: true}
			lastHelp = name
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			name := strings.Fields(line)[2]
			f := families[name]
			if f == nil || !f.help {
				t.Fatalf("TYPE before HELP for %q", name)
			}
			if name != lastHelp {
				t.Fatalf("TYPE %q does not follow its own HELP (last HELP %q)", name, lastHelp)
			}
			f.typ = true
			continue
		}
		// Sample line: name{labels} value, attributed to its family by
		// stripping the label set and histogram/summary suffixes.
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
		metric := fields[0]
		val, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("unparsable value in %q: %v", line, err)
		}
		name := metric
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count", "_max"} {
			if trimmed := strings.TrimSuffix(name, suffix); trimmed != name && families[trimmed] != nil {
				base = trimmed
				break
			}
		}
		f := families[base]
		if f == nil || !f.typ {
			t.Fatalf("sample %q has no preceding HELP/TYPE header", line)
		}
		f.samples++
		if strings.HasSuffix(name, "_bucket") && base != name {
			bucketsOf[base] = append(bucketsOf[base], val)
		}
		if strings.HasSuffix(name, "_count") && base != name {
			countOf[base] = val
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// Families with headers and zero samples are legal (a labeled vector
	// with no live series yet, e.g. the per-view R̂ gauge between queries).
	if len(bucketsOf) == 0 {
		t.Fatal("no histogram families found")
	}
	for name, buckets := range bucketsOf {
		for i := 1; i < len(buckets); i++ {
			if buckets[i] < buckets[i-1] {
				t.Errorf("%s buckets not cumulative: %v", name, buckets)
				break
			}
		}
		if inf := buckets[len(buckets)-1]; inf != countOf[name] {
			t.Errorf("%s +Inf bucket %v != count %v", name, inf, countOf[name])
		}
	}
	if bucketsOf["factordb_query_seconds"] == nil {
		t.Error("factordb_query_seconds did not render as a histogram")
	}
}

// TestHealthzChainHealthFields pins the health endpoint's schema: the
// write epoch and the chain-health summary fields must be present.
func TestHealthzChainHealthFields(t *testing.T) {
	db := sharedDB(t, ModeServed)
	srv := httptest.NewServer(db.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"status", "mode", "chains", "epoch", "write_epoch", "uptime_s", "acceptance_rate", "shared_views"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("healthz is missing %q (have %v)", key, raw)
		}
	}
	var rate float64
	if err := json.Unmarshal(raw["acceptance_rate"], &rate); err != nil {
		t.Fatal(err)
	}
	if rate < 0 || rate > 1 {
		t.Errorf("acceptance_rate = %v, want [0,1]", rate)
	}
}

// TestStatusz pins the introspection endpoint: chain pool with sampler
// health, and a live view with refcount and fingerprint while a query is
// in flight.
func TestStatusz(t *testing.T) {
	db := sharedDB(t, ModeServed)
	srv := httptest.NewServer(db.Handler())
	defer srv.Close()

	// Hold a view live while we scrape: a background query with a large
	// uncached budget.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hold := make(chan struct{})
	go func() {
		defer close(hold)
		rows, err := db.Query(ctx, Query1, Samples(1<<20), NoCache(), AllowPartial())
		if err == nil {
			rows.Close()
		}
	}()

	var st Status
	deadline := 400
	for ; deadline > 0; deadline-- {
		resp, err := http.Get(srv.URL + "/statusz")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Views) > 0 {
			break
		}
	}
	cancel()
	<-hold
	if st.Mode != "served" || st.Chains != 2 || len(st.Pool) != 2 {
		t.Fatalf("statusz = %+v, want served mode with 2 chains", st)
	}
	if len(st.Views) == 0 {
		t.Fatal("statusz never listed the in-flight view")
	}
	v := st.Views[0]
	if !strings.HasPrefix(v.Fingerprint, "bfp1:") {
		t.Errorf("view fingerprint %q lacks the bound-plan prefix", v.Fingerprint)
	}
	if v.Subscribers < 1 {
		t.Errorf("live view reports %d subscribers", v.Subscribers)
	}
	if st.Cache.Capacity == 0 {
		t.Errorf("statusz cache capacity = 0, want the configured default")
	}
}

// TestDebugEndpointsGated pins the split: the public Handler must not
// expose pprof or the trace ring; DebugHandler serves both.
func TestDebugEndpointsGated(t *testing.T) {
	db := sharedDB(t, ModeServed)
	pub := httptest.NewServer(db.Handler())
	defer pub.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/traces"} {
		resp, err := http.Get(pub.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("public handler serves %s with status %d, want 404", path, resp.StatusCode)
		}
	}

	dbg := httptest.NewServer(db.DebugHandler())
	defer dbg.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/traces"} {
		resp, err := http.Get(dbg.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("debug handler: GET %s status %d, want 200", path, resp.StatusCode)
		}
	}

	// /debug/traces returns a JSON array of traces after a traced query.
	rows, err := db.Query(context.Background(), Query1, Samples(4), NoCache(), Trace())
	if err != nil {
		t.Fatal(err)
	}
	rows.Close()
	resp, err := http.Get(dbg.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var traces []*QueryTrace
	if err := json.NewDecoder(resp.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) == 0 {
		t.Fatal("debug ring is empty after a traced query")
	}
	if traces[0].Outcome == "" || len(traces[0].Spans) == 0 {
		t.Fatalf("ring trace is malformed: %+v", traces[0])
	}
}

// TestQueryTraceFacade pins Rows.Trace across modes and the HTTP trace
// opt-in: spans are contiguous and tile the wall time in both the served
// engine and the local evaluator.
func TestQueryTraceFacade(t *testing.T) {
	checkTrace := func(t *testing.T, tr *QueryTrace, wantSpans []string) {
		t.Helper()
		if tr == nil {
			t.Fatal("traced query returned no trace")
		}
		have := map[string]bool{}
		var sum int64
		for i, s := range tr.Spans {
			have[s.Name] = true
			if i > 0 {
				prev := tr.Spans[i-1]
				if s.StartNS != prev.StartNS+prev.DurNS {
					t.Fatalf("span %q starts at %d, previous ended at %d", s.Name, s.StartNS, prev.StartNS+prev.DurNS)
				}
			}
			sum += s.DurNS
		}
		if got := sum + tr.Spans[0].StartNS; got != tr.WallNS {
			t.Fatalf("spans tile %dns of %dns wall time", got, tr.WallNS)
		}
		for _, name := range wantSpans {
			if !have[name] {
				t.Errorf("trace is missing span %q (have %+v)", name, tr.Spans)
			}
		}
	}

	t.Run("served", func(t *testing.T) {
		db := sharedDB(t, ModeServed)
		rows, err := db.Query(context.Background(), Query1, Samples(4), NoCache(), Trace())
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		checkTrace(t, rows.Trace(), []string{"compile", "register", "sample_wait", "snapshot_merge", "rank"})
	})
	t.Run("local", func(t *testing.T) {
		db := sharedDB(t, ModeMaterialized)
		rows, err := db.Query(context.Background(), Query1, Samples(4), Trace())
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		tr := rows.Trace()
		checkTrace(t, tr, []string{"compile", "clone_world", "sample", "rank"})
		if tr.Outcome != "ok" {
			t.Errorf("local trace outcome %q", tr.Outcome)
		}
		if !strings.HasPrefix(tr.Plan, "bfp1:") {
			t.Errorf("local trace fingerprint %q lacks the bound-statement prefix", tr.Plan)
		}
		found := false
		for _, rt := range db.RecentTraces() {
			if rt.ID == tr.ID {
				found = true
			}
		}
		if !found {
			t.Error("local trace did not land in RecentTraces")
		}
	})
	t.Run("untracedIsNil", func(t *testing.T) {
		db := sharedDB(t, ModeMaterialized)
		rows, err := db.Query(context.Background(), Query1, Samples(2))
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		if rows.Trace() != nil {
			t.Fatal("untraced query carries a trace")
		}
	})
	t.Run("http", func(t *testing.T) {
		db := sharedDB(t, ModeServed)
		srv := httptest.NewServer(db.Handler())
		defer srv.Close()
		body := `{"sql": "SELECT STRING FROM TOKEN WHERE LABEL='B-PER'", "samples": 4, "no_cache": true, "trace": true}`
		resp, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var qr struct {
			Trace *QueryTrace `json:"trace"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
		if qr.Trace == nil || len(qr.Trace.Spans) == 0 {
			t.Fatalf("HTTP trace block missing: %+v", qr.Trace)
		}
	})
}

// TestSpanGlossary pins the span glossary in doc.go against the code.
// Under every mode it drives a durable database through traced queries
// (certain, sampled, cached, failing), writes (a commit, a no-op) and a
// torn-tail recovery, then requires that the span names each trace kind
// emitted are exactly the glossary rows for that mode's strategy and for
// certain plans, and that every kind and outcome seen is a documented
// one.
func TestSpanGlossary(t *testing.T) {
	src, err := os.ReadFile("doc.go")
	if err != nil {
		t.Fatal(err)
	}
	spans := map[string]map[string]string{} // kind → span → all | pool | private | certain
	outcomes := map[string]map[string]bool{}
	for _, line := range strings.Split(string(src), "\n") {
		f := strings.Fields(strings.TrimPrefix(line, "//\t"))
		if !strings.HasPrefix(line, "//\t") || len(f) < 2 || f[0] == "kind" {
			continue
		}
		switch f[0] {
		case "query", "exec", "recovery":
			if len(f) > 2 && (f[2] == "all" || f[2] == "pool" || f[2] == "private" || f[2] == "certain") {
				if spans[f[0]] == nil {
					spans[f[0]] = map[string]string{}
				}
				spans[f[0]][f[1]] = f[2]
				continue
			}
			outcomes[f[0]] = map[string]bool{}
			for _, o := range f[1:] {
				outcomes[f[0]][o] = true
			}
		}
	}
	if len(spans) != 3 || len(outcomes) != 3 {
		t.Fatalf("doc.go glossary parsed to %d span kinds and %d outcome kinds, want 3 and 3", len(spans), len(outcomes))
	}

	for mode, strategy := range map[Mode]string{ModeNaive: "private", ModeMaterialized: "private", ModeServed: "pool"} {
		t.Run(mode.String(), func(t *testing.T) {
			emitted := map[string]map[string]bool{"query": {}, "exec": {}, "recovery": {}}
			note := func(tr *QueryTrace) {
				t.Helper()
				if tr == nil {
					t.Fatal("operation left no trace")
				}
				if !outcomes[tr.Kind][tr.Outcome] {
					t.Errorf("kind %q outcome %q is not in the doc.go glossary", tr.Kind, tr.Outcome)
				}
				for _, s := range tr.Spans {
					emitted[tr.Kind][s.Name] = true
				}
			}
			ctx := context.Background()
			dir := t.TempDir()
			opts := durableOpts(dir, WithMode(mode), WithChains(2))
			db, err := Open(durableNER(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			note(db.Status().StartupTrace)
			const certain = `SELECT STRING FROM TOKEN WHERE TOK_ID = 1`
			const sampled = `SELECT STRING FROM TOKEN WHERE TOK_ID = 1 AND LABEL <> 'X'`
			// Certain fresh, then cached when served; sampled; failing.
			for _, sql := range []string{certain, certain, sampled, `SELECT NOPE FROM TOKEN`} {
				if rows, err := db.Query(ctx, sql, Samples(2), Trace()); err == nil {
					rows.Close()
				}
			}
			for _, id := range []int{1, 1 << 40} { // a commit, a no-op
				if _, err := db.Exec(ctx, fmt.Sprintf(`UPDATE TOKEN SET STRING = 'g' WHERE TOK_ID = %d`, id), ExecTrace()); err != nil {
					t.Fatal(err)
				}
			}
			traces := db.RecentTraces()
			if len(traces) != 6 {
				t.Fatalf("6 traced operations left %d traces", len(traces))
			}
			for _, tr := range traces {
				note(tr)
			}
			db.Close()

			// A crash mid-append leaves a torn record; recovery truncates it.
			f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.Write([]byte{0, 0, 0, 9, 1, 2})
			f.Close()
			re, err := Open(durableNER(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			note(re.Status().StartupTrace)
			re.Close()

			for kind, rows := range spans {
				for name, by := range rows {
					if (by == "all" || by == strategy || by == "certain") != emitted[kind][name] {
						t.Errorf("%s span %q: glossary says emitted by %q, %s strategy emitted=%v",
							kind, name, by, strategy, emitted[kind][name])
					}
				}
				for name := range emitted[kind] {
					if _, ok := rows[name]; !ok {
						t.Errorf("%s span %q is emitted but missing from the doc.go glossary", kind, name)
					}
				}
			}
		})
	}
}
