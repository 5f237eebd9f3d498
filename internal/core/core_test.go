package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"factordb/internal/factor"
	"factordb/internal/ie"
	"factordb/internal/ivm"
	"factordb/internal/mcmc"
	"factordb/internal/metrics"
	"factordb/internal/ra"
	"factordb/internal/relstore"
	"factordb/internal/world"
)

// ---- tiny explicit-graph world for exactness tests ----

var tinyStrings = []string{"IBM", "IBM", "Smith", "said"}

// tinyWorld is one chain over a 4-token world whose label variables live
// in an explicit factor graph, so exact query marginals are computable by
// enumeration.
type tinyWorld struct {
	m   *factor.Model
	log *world.ChangeLog
	p   mcmc.Proposer
}

func newTinyWorld(t *testing.T, seed int64) tinyWorld {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dom := factor.NewDomain("label", "O", "B-PER")
	g := factor.NewGraph()
	for range tinyStrings {
		v := g.AddVar("y", dom)
		w := rng.NormFloat64()
		g.MustAddFactor("bias", func(vals []int) float64 {
			if vals[0] == 1 {
				return w
			}
			return 0
		}, v)
	}
	// A pairwise factor to create correlation (like a skip edge between
	// the two IBM tokens).
	w := 0.9
	g.MustAddFactor("skip", func(vals []int) float64 {
		if vals[0] == vals[1] {
			return w
		}
		return -w
	}, g.Vars[0], g.Vars[1])

	db := relstore.NewDB()
	rel := db.MustCreate(relstore.MustSchema("TOKEN",
		relstore.Column{Name: "TOK_ID", Type: relstore.TInt},
		relstore.Column{Name: "STRING", Type: relstore.TString},
		relstore.Column{Name: "LABEL", Type: relstore.TString},
	))
	for i, s := range tinyStrings {
		if _, err := rel.Insert(relstore.Tuple{relstore.Int(int64(i)), relstore.String(s), relstore.String("O")}); err != nil {
			t.Fatal(err)
		}
	}
	m, err := factor.NewModel(g, db, "TOKEN", 2)
	if err != nil {
		t.Fatal(err)
	}
	log, p, err := m.NewChainWorld(0)
	if err != nil {
		t.Fatal(err)
	}
	return tinyWorld{m, log, p}
}

// exact computes Pr[t ∈ Q(W)] of perQuery by enumeration.
func (tw tinyWorld) exact(t *testing.T) map[string]float64 {
	t.Helper()
	out, err := tw.m.ExactAnswer(perQuery())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func perQuery() ra.Plan {
	return ra.NewProject(
		ra.NewSelect(ra.NewScan("TOKEN", "T"),
			ra.Eq(ra.Col(ra.C("T", "LABEL")), ra.Const(relstore.String("B-PER")))),
		ra.C("T", "STRING"),
	)
}

// TestEvaluatorMatchesExactMarginals is the end-to-end correctness test:
// both evaluators' estimates of Pr[t ∈ Q(W)] must converge to the
// enumerated truth.
func TestEvaluatorMatchesExactMarginals(t *testing.T) {
	for _, mode := range []Mode{Naive, Materialized} {
		tw := newTinyWorld(t, 5)
		ev, err := NewEvaluator(mode, tw.log, tw.p, perQuery(), 3, 99)
		if err != nil {
			t.Fatal(err)
		}
		if err := ev.Run(60000, nil); err != nil {
			t.Fatal(err)
		}
		exact := tw.exact(t)
		if got := metrics.MaxAbsDiff(ev.Marginals(), exact); got > 0.02 {
			t.Errorf("%v: max |est-exact| = %.4f, want <= 0.02", mode, got)
		}
	}
}

// TestNaiveAndMaterializedAgreeExactly runs both evaluators with the same
// seed over identical worlds: they see the same sample stream and must
// produce bit-identical marginal estimates (the two algorithms differ
// only in how the answer is computed, not in what it is).
func TestNaiveAndMaterializedAgreeExactly(t *testing.T) {
	run := func(mode Mode) map[string]float64 {
		tw := newTinyWorld(t, 7)
		ev, err := NewEvaluator(mode, tw.log, tw.p, perQuery(), 5, 123)
		if err != nil {
			t.Fatal(err)
		}
		if err := ev.Run(2000, nil); err != nil {
			t.Fatal(err)
		}
		return ev.Marginals()
	}
	naive, mat := run(Naive), run(Materialized)
	if len(naive) != len(mat) {
		t.Fatalf("different answer sets: %d vs %d", len(naive), len(mat))
	}
	for k, p := range naive {
		if mat[k] != p {
			t.Fatalf("marginal mismatch for %q: naive %v, materialized %v", k, p, mat[k])
		}
	}
}

// TestNERIntegration runs the full pipeline on a small synthetic corpus:
// generate, load, train, evaluate Query 1 with both evaluators.
func TestNERIntegration(t *testing.T) {
	corpus, err := ie.Generate(ie.DefaultGenConfig(2000, 21))
	if err != nil {
		t.Fatal(err)
	}
	load := func() *relstore.DB {
		db := relstore.NewDB()
		if err := ie.LoadCorpus(db, corpus, ie.LO); err != nil {
			t.Fatal(err)
		}
		return db
	}
	trainDB := load()
	index, err := ie.NewCorpusIndex(trainDB)
	if err != nil {
		t.Fatal(err)
	}
	model := ie.NewModel(index.NumStrings(), true)

	build := func(seed int64, mode Mode) (*Evaluator, *ie.Tagger) {
		log := world.NewChangeLog(load())
		tg, err := ie.NewTagger(model, index, log)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := NewEvaluator(mode, log, tg, perNERQuery(), 200, seed)
		if err != nil {
			t.Fatal(err)
		}
		return ev, tg
	}

	// Train on an unbound tagger (memory only), sharing the model.
	trainTg, err := ie.NewTrainer(model, index, trainDB)
	if err != nil {
		t.Fatal(err)
	}
	trainTg.Train(30000, 1.0, 3)

	evN, _ := build(55, Naive)
	evM, _ := build(55, Materialized)
	if err := evN.Run(150, nil); err != nil {
		t.Fatal(err)
	}
	if err := evM.Run(150, nil); err != nil {
		t.Fatal(err)
	}
	if evN.Estimator().Samples() != 150 || evM.Estimator().Samples() != 150 {
		t.Fatal("sample counts wrong")
	}
	n, m := evN.Marginals(), evM.Marginals()
	if len(n) == 0 {
		t.Fatal("empty answer: trained model predicts no persons at all")
	}
	if got := metrics.MaxAbsDiff(n, m); got != 0 {
		t.Errorf("same-seed evaluators disagree by %v", got)
	}
}

func perNERQuery() ra.Plan {
	return ra.NewProject(
		ra.NewSelect(ra.NewScan(ie.TokenRelation, "T"),
			ra.Eq(ra.Col(ra.C("T", "LABEL")), ra.Const(relstore.String("B-PER")))),
		ra.C("T", "STRING"),
	)
}

func TestRunTracedLossDecreases(t *testing.T) {
	tw := newTinyWorld(t, 9)
	truth := tw.exact(t)
	ev, err := NewEvaluator(Materialized, tw.log, tw.p, perQuery(), 3, 77)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ev.RunTraced(20000, truth)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Points) != 20000 {
		t.Fatalf("trace has %d points", len(tr.Points))
	}
	if tr.Final() >= tr.Initial() {
		t.Errorf("loss did not decrease: initial %v, final %v", tr.Initial(), tr.Final())
	}
	if tr.Final() > 0.01 {
		t.Errorf("final loss = %v, want near 0", tr.Final())
	}
}

func TestEstimator(t *testing.T) {
	a := new(ivm.Answer)
	e := NewEstimator()
	e.AddSample(hold(a, "a", "b"))
	e.AddSample(hold(a, "a"))
	if e.Samples() != 2 {
		t.Fatalf("Samples = %d", e.Samples())
	}
	m := e.Marginals()
	aKey := relstore.Tuple{relstore.String("a")}.Key()
	bKey := relstore.Tuple{relstore.String("b")}.Key()
	if m[aKey] != 1.0 || m[bKey] != 0.5 {
		t.Errorf("marginals = %v", m)
	}
	res := e.Results()
	if len(res) != 2 || res[0].P != 1.0 || res[0].Tuple[0].AsString() != "a" {
		t.Errorf("Results = %v", res)
	}
	// Merge doubles counts.
	o := NewEstimator()
	o.AddSample(stringAnswer("b"))
	merged := NewEstimator()
	merged.Merge(e.Snapshot())
	merged.Merge(o.Snapshot())
	if got := merged.Marginals()[bKey]; math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("merged marginal = %v", got)
	}
}

// stringAnswer builds a one-column answer table holding each value once.
func stringAnswer(vals ...string) *ivm.Answer {
	return hold(new(ivm.Answer), vals...)
}

// hold makes a hold exactly vals, once each — the next sampled answer of
// one view — and returns it.
func hold(a *ivm.Answer, vals ...string) *ivm.Answer {
	for s := range int32(a.Slots()) {
		if n := a.Count(s); n != 0 && !slices.Contains(vals, a.Tuple(s)[0].AsString()) {
			a.Add(a.Tuple(s), -n)
		}
	}
	for _, v := range vals {
		t := relstore.Tuple{relstore.String(v)}
		a.Add(t, 1-a.Count(a.Slot(t)))
	}
	return a
}

// TestSnapshotIsImmutable pins the publication contract: once taken, a
// snapshot's samples, results and intervals do not move, whatever the
// estimator goes on to count — including tuples it appends to the
// dictionary the snapshot shares.
func TestSnapshotIsImmutable(t *testing.T) {
	a := new(ivm.Answer)
	e := NewEstimator()
	e.AddSample(hold(a, "a", "b"))
	s := e.Snapshot()
	wantRes, wantCI := s.Results(), s.ResultsCI(1.96)

	e.AddSample(hold(a, "a"))
	e.AddSample(hold(a, "c", "d", "e", "f", "g"))
	e.AddSample(hold(a, "b", "h"))

	if s.Samples() != 1 || e.Samples() != 4 {
		t.Fatalf("snapshot shares state: %d vs %d samples", s.Samples(), e.Samples())
	}
	if got := s.Results(); !reflect.DeepEqual(got, wantRes) {
		t.Errorf("Results moved: %v, want %v", got, wantRes)
	}
	if got := s.ResultsCI(1.96); !reflect.DeepEqual(got, wantCI) {
		t.Errorf("ResultsCI moved: %v, want %v", got, wantCI)
	}
	bKey := relstore.Tuple{relstore.String("b")}.Key()
	if s.Marginals()[bKey] != 1.0 || e.Marginals()[bKey] != 0.5 {
		t.Errorf("b: snapshot %v, estimator %v", s.Marginals()[bKey], e.Marginals()[bKey])
	}
	if len(e.Results()) != 8 {
		t.Errorf("estimator answers %d tuples, want 8", len(e.Results()))
	}
}

// TestSnapshotMergeRacesOwner reads and merges published snapshots on one
// goroutine while the owner keeps sampling new tuples on another — the
// serving chain's publish pattern. Run with -race: the owner's appends to
// the shared dictionary must never touch what a snapshot can see.
func TestSnapshotMergeRacesOwner(t *testing.T) {
	var cell atomic.Pointer[Snapshot]
	owner := NewEstimator()
	cell.Store(owner.Snapshot())
	done := make(chan struct{})
	go func() {
		defer close(done)
		a := new(ivm.Answer)
		for i := 0; i < 500; i++ {
			owner.AddSample(hold(a, "shared", fmt.Sprintf("new-%d", i)))
			cell.Store(owner.Snapshot())
		}
	}()
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		s := cell.Load()
		if s.Samples() == 0 {
			continue
		}
		merged := NewEstimator()
		merged.Merge(s)
		merged.Merge(s)
		cis := merged.ResultsCI(1.96)
		// Every sample adds one fresh tuple beside the shared one.
		if int64(len(cis)) != s.Samples()+1 {
			t.Fatalf("%d samples merged into %d tuples, want %d", s.Samples(), len(cis), s.Samples()+1)
		}
		if merged.Samples() != 2*s.Samples() || cis[0].P != 1 {
			t.Fatalf("merged %d samples, shared tuple at p=%v; want %d at p=1",
				merged.Samples(), cis[0].P, 2*s.Samples())
		}
	}
}

func TestResultsCI(t *testing.T) {
	a := new(ivm.Answer)
	e := NewEstimator()
	for i := 0; i < 100; i++ {
		if i < 50 {
			e.AddSample(hold(a, "always", "half"))
		} else {
			e.AddSample(hold(a, "always"))
		}
	}
	for _, ci := range e.ResultsCI(1.96) {
		if ci.Lo < 0 || ci.Hi > 1 || ci.Lo > ci.Hi {
			t.Errorf("malformed interval: %+v", ci)
		}
		if ci.P < ci.Lo || ci.P > ci.Hi {
			t.Errorf("interval excludes the point estimate: %+v", ci)
		}
		if ci.Lo == ci.Hi {
			t.Errorf("degenerate interval at n=100: %+v", ci)
		}
	}
	res := e.ResultsCI(1.96)
	if len(res) != 2 || res[0].Tuple[0].AsString() != "always" {
		t.Fatalf("ResultsCI order: %+v", res)
	}
	// p=1 at n=100: Wilson keeps the upper bound at 1 and pulls the lower
	// bound strictly below it.
	if res[0].Hi != 1 || res[0].Lo >= 1 || res[0].Lo < 0.9 {
		t.Errorf("p=1 interval: %+v", res[0])
	}
	// The half tuple's interval must straddle 0.5 roughly symmetrically.
	if res[1].Lo >= 0.5 || res[1].Hi <= 0.5 {
		t.Errorf("p=0.5 interval: %+v", res[1])
	}
	// z=0 degenerates to the point estimate.
	for _, ci := range e.ResultsCI(0) {
		if ci.Lo != ci.P || ci.Hi != ci.P {
			t.Errorf("z=0 interval should be the point estimate: %+v", ci)
		}
	}
}

func TestEstimatorIgnoresNonPositiveCounts(t *testing.T) {
	a := new(ivm.Answer)
	a.Add(relstore.Tuple{relstore.String("ghost")}, -1)
	e := NewEstimator()
	e.AddSample(a)
	if len(e.Marginals()) != 0 {
		t.Error("negative-count tuple must not be counted as present")
	}
}

func TestEmptyEstimator(t *testing.T) {
	e := NewEstimator()
	if len(e.Marginals()) != 0 || len(e.Results()) != 0 || e.Samples() != 0 {
		t.Error("empty estimator should report nothing")
	}
}

func TestNewEvaluatorErrors(t *testing.T) {
	tw := newTinyWorld(t, 1)
	if _, err := NewEvaluator(Naive, tw.log, tw.p, perQuery(), 0, 1); err == nil {
		t.Error("k=0: want error")
	}
	bad := ra.NewScan("MISSING", "")
	if _, err := NewEvaluator(Naive, tw.log, tw.p, bad, 10, 1); err == nil {
		t.Error("bad plan: want error")
	}
}

func TestRunParallelReducesError(t *testing.T) {
	truth := newTinyWorld(t, 13).exact(t)
	loss := func(chains int) float64 {
		est, err := RunParallel(chains, 400, func(c int) (*Evaluator, error) {
			tw := newTinyWorld(t, 13) // identical initial worlds
			return NewEvaluator(Materialized, tw.log, tw.p, perQuery(), 3, int64(1000+c*7919))
		})
		if err != nil {
			t.Fatal(err)
		}
		return metrics.SquaredError(est.Marginals(), truth)
	}
	l1, l8 := loss(1), loss(8)
	if l8 >= l1 {
		t.Errorf("8 chains did not reduce error: 1-chain %v, 8-chain %v", l1, l8)
	}
}

func TestRunParallelErrors(t *testing.T) {
	if _, err := RunParallel(0, 1, nil); err == nil {
		t.Error("0 chains: want error")
	}
	_, err := RunParallel(1, 1, func(int) (*Evaluator, error) {
		return nil, errBoom
	})
	if err == nil {
		t.Error("factory error must propagate")
	}
}

var errBoom = errBoomType{}

type errBoomType struct{}

func (errBoomType) Error() string { return "boom" }

func TestGroundTruthAndAnswer(t *testing.T) {
	tw := newTinyWorld(t, 3)
	// Deterministic single-world answer: initially nothing is B-PER.
	bound, err := ra.Bind(tw.log.DB(), perQuery())
	if err != nil {
		t.Fatal(err)
	}
	bag, err := ra.Eval(bound)
	if err != nil {
		t.Fatal(err)
	}
	if bag.Len() != 0 {
		t.Errorf("initial answer has %d tuples, want 0", bag.Len())
	}
	// Ground truth the paper's way (Section 5.2): a long materialized run
	// over the same world, one sample every thin steps.
	ev, err := NewEvaluator(Materialized, tw.log, tw.p, perQuery(), 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Run(5000, nil); err != nil {
		t.Fatal(err)
	}
	truth := ev.Marginals()
	exact := tw.exact(t)
	if got := metrics.MaxAbsDiff(truth, exact); got > 0.05 {
		t.Errorf("ground-truth estimate off by %v", got)
	}
}
