package core

import (
	"math"
	"math/rand"
	"testing"

	"factordb/internal/factor"
	"factordb/internal/ie"
	"factordb/internal/mcmc"
	"factordb/internal/metrics"
	"factordb/internal/ra"
	"factordb/internal/relstore"
	"factordb/internal/world"
)

// ---- tiny explicit-graph world for exactness tests ----

// tinyWorld is a 4-token world whose label variables live in an explicit
// factor graph, so exact query marginals are computable by enumeration.
type tinyWorld struct {
	g    *factor.Graph
	vars []*factor.Var
	log  *world.ChangeLog
	rows []relstore.RowID

	i, newVal int // pending move
}

var tinyStrings = []string{"IBM", "IBM", "Smith", "said"}

func newTinyWorld(seed int64) *tinyWorld {
	rng := rand.New(rand.NewSource(seed))
	dom := factor.NewDomain("label", "O", "B-PER")
	g := factor.NewGraph()
	tw := &tinyWorld{g: g}
	for range tinyStrings {
		v := g.AddVar("y", dom)
		tw.vars = append(tw.vars, v)
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
	}, tw.vars[0], tw.vars[1])

	db := relstore.NewDB()
	rel := db.MustCreate(relstore.MustSchema("TOKEN",
		relstore.Column{Name: "TOK_ID", Type: relstore.TInt},
		relstore.Column{Name: "STRING", Type: relstore.TString},
		relstore.Column{Name: "LABEL", Type: relstore.TString},
	))
	for i, s := range tinyStrings {
		id, err := rel.Insert(relstore.Tuple{relstore.Int(int64(i)), relstore.String(s), relstore.String("O")})
		if err != nil {
			panic(err)
		}
		tw.rows = append(tw.rows, id)
	}
	tw.log = world.NewChangeLog(db)
	return tw
}

// Propose implements mcmc.Proposer with database write-through.
func (tw *tinyWorld) Propose(rng *rand.Rand) mcmc.Proposal {
	tw.i = rng.Intn(len(tw.vars))
	v := tw.vars[tw.i]
	tw.newVal = rng.Intn(v.Dom.Size())
	return mcmc.Proposal{LogScoreDelta: tw.g.ScoreDelta(v, tw.newVal)}
}

// Accept commits the pending move (variable i takes newVal).
func (tw *tinyWorld) Accept() {
	v := tw.vars[tw.i]
	v.Val = tw.newVal
	ref := world.FieldRef{Rel: "TOKEN", Row: tw.rows[tw.i], Col: 2}
	if err := tw.log.SetField(ref, relstore.String(v.Dom.Values[tw.newVal])); err != nil {
		panic(err)
	}
}

func perQuery() ra.Plan {
	return ra.NewProject(
		ra.NewSelect(ra.NewScan("TOKEN", "T"),
			ra.Eq(ra.Col(ra.C("T", "LABEL")), ra.Const(relstore.String("B-PER")))),
		ra.C("T", "STRING"),
	)
}

// exactTupleMarginals computes Pr[t ∈ Q(W)] by enumeration for the
// tiny world's Query 1.
func exactTupleMarginals(tw *tinyWorld) map[string]float64 {
	out := make(map[string]float64)
	distinct := map[string][]int{}
	for i, s := range tinyStrings {
		distinct[s] = append(distinct[s], i)
	}
	for s, positions := range distinct {
		key := relstore.Tuple{relstore.String(s)}.Key()
		p, err := tw.g.ExactProb(func(assign []int) bool {
			for _, i := range positions {
				if assign[i] == 1 {
					return true
				}
			}
			return false
		})
		if err != nil {
			panic(err)
		}
		if p > 0 {
			out[key] = p
		}
	}
	return out
}

// TestEvaluatorMatchesExactMarginals is the end-to-end correctness test:
// both evaluators' estimates of Pr[t ∈ Q(W)] must converge to the
// enumerated truth.
func TestEvaluatorMatchesExactMarginals(t *testing.T) {
	for _, mode := range []Mode{Naive, Materialized} {
		tw := newTinyWorld(5)
		ev, err := NewEvaluator(mode, tw.log, tw, perQuery(), 3, 99)
		if err != nil {
			t.Fatal(err)
		}
		if err := ev.Run(60000, nil); err != nil {
			t.Fatal(err)
		}
		exact := exactTupleMarginals(tw)
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
		tw := newTinyWorld(7)
		ev, err := NewEvaluator(mode, tw.log, tw, perQuery(), 5, 123)
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
	vocab := ie.BuildVocab(corpus)
	model := ie.NewModel(vocab, true)

	build := func(seed int64, mode Mode) (*Evaluator, *ie.Tagger) {
		db := relstore.NewDB()
		rows, err := ie.LoadCorpus(db, corpus, ie.LO)
		if err != nil {
			t.Fatal(err)
		}
		log := world.NewChangeLog(db)
		tg := ie.NewTagger(model, corpus, ie.LO)
		if err := tg.BindDB(log, rows); err != nil {
			t.Fatal(err)
		}
		ev, err := NewEvaluator(mode, log, tg, perNERQuery(), 200, seed)
		if err != nil {
			t.Fatal(err)
		}
		return ev, tg
	}

	// Train on an unbound tagger (memory only), sharing the model.
	trainTg := ie.NewTagger(model, corpus, ie.LO)
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
	tw := newTinyWorld(9)
	truth := exactTupleMarginals(tw)
	ev, err := NewEvaluator(Materialized, tw.log, tw, perQuery(), 3, 77)
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
	sch := &ra.RowSchema{Cols: []ra.OutCol{{Ref: ra.C("", "s"), Type: relstore.TString}}}
	mk := func(vals ...string) *ra.Bag {
		b := ra.NewBag(sch)
		for _, v := range vals {
			b.Add(relstore.Tuple{relstore.String(v)}, 1)
		}
		return b
	}
	e := NewEstimator()
	e.AddSample(mk("a", "b"))
	e.AddSample(mk("a"))
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
	o.AddSample(mk("b"))
	e.Merge(o)
	if got := e.Marginals()[bKey]; math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("merged marginal = %v", got)
	}
}

func TestEstimatorCloneIsIndependent(t *testing.T) {
	sch := &ra.RowSchema{Cols: []ra.OutCol{{Ref: ra.C("", "s"), Type: relstore.TString}}}
	mk := func(vals ...string) *ra.Bag {
		b := ra.NewBag(sch)
		for _, v := range vals {
			b.Add(relstore.Tuple{relstore.String(v)}, 1)
		}
		return b
	}
	e := NewEstimator()
	e.AddSample(mk("a", "b"))
	c := e.Clone()
	e.AddSample(mk("a"))
	if c.Samples() != 1 || e.Samples() != 2 {
		t.Fatalf("clone shares state: %d vs %d samples", c.Samples(), e.Samples())
	}
	aKey := relstore.Tuple{relstore.String("a")}.Key()
	if c.Marginals()[aKey] != 1.0 || e.Marginals()[aKey] != 1.0 {
		t.Errorf("marginals: clone %v orig %v", c.Marginals(), e.Marginals())
	}
	bKey := relstore.Tuple{relstore.String("b")}.Key()
	if c.Marginals()[bKey] != 1.0 || e.Marginals()[bKey] != 0.5 {
		t.Errorf("clone marginal drifted: %v vs %v", c.Marginals()[bKey], e.Marginals()[bKey])
	}
}

func TestResultsCI(t *testing.T) {
	sch := &ra.RowSchema{Cols: []ra.OutCol{{Ref: ra.C("", "s"), Type: relstore.TString}}}
	e := NewEstimator()
	for i := 0; i < 100; i++ {
		b := ra.NewBag(sch)
		b.Add(relstore.Tuple{relstore.String("always")}, 1)
		if i < 50 {
			b.Add(relstore.Tuple{relstore.String("half")}, 1)
		}
		e.AddSample(b)
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
	sch := &ra.RowSchema{Cols: []ra.OutCol{{Ref: ra.C("", "s"), Type: relstore.TString}}}
	b := ra.NewBag(sch)
	b.Add(relstore.Tuple{relstore.String("ghost")}, -1)
	e := NewEstimator()
	e.AddSample(b)
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
	tw := newTinyWorld(1)
	if _, err := NewEvaluator(Naive, tw.log, tw, perQuery(), 0, 1); err == nil {
		t.Error("k=0: want error")
	}
	bad := ra.NewScan("MISSING", "")
	if _, err := NewEvaluator(Naive, tw.log, tw, bad, 10, 1); err == nil {
		t.Error("bad plan: want error")
	}
}

func TestRunParallelReducesError(t *testing.T) {
	truth := exactTupleMarginals(newTinyWorld(13))
	loss := func(chains int) float64 {
		est, err := RunParallel(chains, 400, func(c int) (*Evaluator, error) {
			tw := newTinyWorld(13) // identical initial worlds
			return NewEvaluator(Materialized, tw.log, tw, perQuery(), 3, int64(1000+c*7919))
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
	tw := newTinyWorld(3)
	// Deterministic single-world answer: initially nothing is B-PER.
	bag, err := Answer(tw.log.DB(), perQuery())
	if err != nil {
		t.Fatal(err)
	}
	if bag.Len() != 0 {
		t.Errorf("initial answer has %d tuples, want 0", bag.Len())
	}
	truth, err := GroundTruth(tw.log, tw, perQuery(), 5000, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	exact := exactTupleMarginals(tw)
	if got := metrics.MaxAbsDiff(truth, exact); got > 0.05 {
		t.Errorf("ground-truth estimate off by %v", got)
	}
}
