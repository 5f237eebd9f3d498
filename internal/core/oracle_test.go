package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"factordb/internal/ivm"
	"factordb/internal/ra"
	"factordb/internal/relstore"
	"factordb/internal/world"
)

// refEstimator is the estimator the answer-table one replaced, kept as
// the differential oracle: every sample it scans the whole answer and
// looks each present tuple up by its key string in a map of its own.
type refEstimator struct {
	index  map[string]int32
	keys   []string
	tuples []relstore.Tuple
	counts []int64
	z      int64
}

func newRefEstimator() *refEstimator { return &refEstimator{index: make(map[string]int32)} }

func (r *refEstimator) slot(key string, t relstore.Tuple) int32 {
	s, ok := r.index[key]
	if !ok {
		s = int32(len(r.keys))
		r.index[key] = s
		r.keys = append(r.keys, key)
		r.tuples = append(r.tuples, t.Clone())
		r.counts = append(r.counts, 0)
	}
	return s
}

func (r *refEstimator) addSample(a *ivm.Answer) {
	r.z++
	for s := range int32(a.Slots()) {
		if a.Count(s) > 0 {
			t := a.Tuple(s)
			r.counts[r.slot(t.Key(), t)]++
		}
	}
}

func (r *refEstimator) merge(o *refEstimator) {
	r.z += o.z
	for i, k := range o.keys {
		r.counts[r.slot(k, o.tuples[i])] += o.counts[i]
	}
}

func (r *refEstimator) p(s int32) float64 { return float64(r.counts[s]) / float64(r.z) }

func (r *refEstimator) marginals() map[string]float64 {
	out := make(map[string]float64, len(r.keys))
	for i, k := range r.keys {
		out[k] = r.p(int32(i))
	}
	return out
}

// ranked orders by descending count, then ascending key string.
func (r *refEstimator) ranked() []int32 {
	order := make([]int32, len(r.keys))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(r.counts[b], r.counts[a]); c != 0 {
			return c
		}
		return strings.Compare(r.keys[a], r.keys[b])
	})
	return order
}

func (r *refEstimator) results() []TupleProb {
	out := make([]TupleProb, 0, len(r.keys))
	for _, s := range r.ranked() {
		out = append(out, TupleProb{Tuple: r.tuples[s], P: r.p(s)})
	}
	return out
}

func (r *refEstimator) resultsCI(z float64) []TupleCI {
	out := make([]TupleCI, 0, len(r.keys))
	n := float64(r.z)
	for _, s := range r.ranked() {
		p := r.p(s)
		lo, hi := p, p
		if n > 0 && z > 0 {
			z2 := z * z
			denom := 1 + z2/n
			center := (p + z2/(2*n)) / denom
			half := z / denom * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
			lo, hi = max(center-half, 0), min(center+half, 1)
			lo, hi = min(lo, p), max(hi, p)
		}
		out = append(out, TupleCI{Tuple: r.tuples[s], P: p, Lo: lo, Hi: hi})
	}
	return out
}

// sameEstimate fails unless the estimator and the reference hold the
// same samples, the same count for every tuple, and the same Results,
// ResultsCI and Marginals; no tuple a sample did not count may appear.
func sameEstimate(t *testing.T, what string, e *Estimator, r *refEstimator) {
	t.Helper()
	snap := e.Snapshot()
	if snap.Samples() != r.z || e.Samples() != r.z {
		t.Fatalf("%s: %d samples (snapshot %d), reference %d", what, e.Samples(), snap.Samples(), r.z)
	}
	got := make(map[string]int64)
	for s, c := range snap.counts {
		if c > 0 {
			got[snap.dict.Tuple(int32(s)).Key()] = c
		}
	}
	want := make(map[string]int64)
	for i, k := range r.keys {
		want[k] = r.counts[i]
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: counts\n got %v\nwant %v", what, got, want)
	}
	res := e.Results()
	for _, tp := range res {
		if tp.P <= 0 {
			t.Fatalf("%s: %v reported at p=%v", what, tp.Tuple, tp.P)
		}
	}
	if want := r.results(); !reflect.DeepEqual(res, want) {
		t.Fatalf("%s: Results\n got %v\nwant %v", what, res, want)
	}
	if got, want := snap.Results(), r.results(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: snapshot Results\n got %v\nwant %v", what, got, want)
	}
	if got, want := e.ResultsCI(1.96), r.resultsCI(1.96); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: ResultsCI\n got %v\nwant %v", what, got, want)
	}
	if got, want := e.Marginals(), r.marginals(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Marginals\n got %v\nwant %v", what, got, want)
	}
}

var (
	oracleLabels = []string{"O", "B-PER", "I-PER", "B-ORG", "I-ORG", "B-LOC"}
	oracleWords  = []string{"Clinton", "IBM", "Boston", "saw", "the", "Smith", "Corp"}
)

func oraclePerSelect(alias string) ra.Plan {
	return ra.NewSelect(ra.NewScan("TOKEN", alias),
		ra.Eq(ra.Col(ra.C(alias, "LABEL")), ra.Const(relstore.String("B-PER"))))
}

// oraclePlans are the plan shapes the view oracle (ivm's
// checkAgainstFullEval) maintains: selections, projections, global and
// grouped aggregates, the paper's Queries 1–4, joins with a residual
// filter and a cross product.
func oraclePlans() map[string]ra.Plan {
	per := oraclePerSelect("T")
	countIf := func(alias string) ra.Plan {
		return ra.NewGroupAgg(ra.NewScan("TOKEN", alias), []ra.ColRef{ra.C(alias, "DOC_ID")},
			ra.Agg{Fn: ra.FnCountIf, Pred: ra.Eq(ra.Col(ra.C(alias, "LABEL")), ra.Const(relstore.String("B-PER"))), As: "NPER"},
			ra.Agg{Fn: ra.FnCountIf, Pred: ra.Eq(ra.Col(ra.C(alias, "LABEL")), ra.Const(relstore.String("B-ORG"))), As: "NORG"})
	}
	agree := ra.Eq(ra.Col(ra.C("", "NPER")), ra.Col(ra.C("", "NORG")))
	boston := ra.NewSelect(ra.NewScan("TOKEN", "T1"), ra.And(
		ra.Eq(ra.Col(ra.C("T1", "STRING")), ra.Const(relstore.String("Boston"))),
		ra.Eq(ra.Col(ra.C("T1", "LABEL")), ra.Const(relstore.String("B-ORG")))))
	org := ra.NewProject(ra.NewSelect(ra.NewScan("TOKEN", "U"),
		ra.Eq(ra.Col(ra.C("U", "LABEL")), ra.Const(relstore.String("B-ORG")))), ra.C("U", "STRING"))
	return map[string]ra.Plan{
		"select":          per,
		"query1":          ra.NewProject(per, ra.C("T", "STRING")),
		"query2":          ra.NewGroupAgg(per, nil, ra.Agg{Fn: ra.FnCount, As: "CNT"}),
		"grouped-countif": ra.NewProject(ra.NewSelect(countIf("T"), agree), ra.C("T", "DOC_ID")),
		"query3": ra.NewProject(ra.NewSelect(
			ra.NewJoin(ra.NewScan("TOKEN", "T"), countIf("T1"),
				[]ra.EquiCond{{Left: ra.C("T", "DOC_ID"), Right: ra.C("T1", "DOC_ID")}}, nil),
			agree), ra.C("T", "DOC_ID")),
		"query4": ra.NewProject(ra.NewJoin(boston, oraclePerSelect("T2"),
			[]ra.EquiCond{{Left: ra.C("T1", "DOC_ID"), Right: ra.C("T2", "DOC_ID")}}, nil), ra.C("T2", "STRING")),
		"join-residual": ra.NewJoin(ra.NewScan("TOKEN", "T1"), ra.NewScan("TOKEN", "T2"),
			[]ra.EquiCond{{Left: ra.C("T1", "DOC_ID"), Right: ra.C("T2", "DOC_ID")}},
			ra.And(ra.Eq(ra.Col(ra.C("T1", "LABEL")), ra.Const(relstore.String("B-PER"))),
				ra.Cmp(ra.OpLt, ra.Col(ra.C("T1", "TOK_ID")), ra.Col(ra.C("T2", "TOK_ID"))))),
		"cross":   ra.NewJoin(ra.NewProject(per, ra.C("T", "STRING")), org, nil, nil),
		"min-max": ra.NewGroupAgg(per, []ra.ColRef{ra.C("T", "DOC_ID")}, ra.Agg{Fn: ra.FnMin, Arg: ra.C("T", "TOK_ID"), As: "LO"}, ra.Agg{Fn: ra.FnMax, Arg: ra.C("T", "TOK_ID"), As: "HI"}),
	}
}

// oracleWorld is a TOKEN relation behind a change log, with the live row
// ids, for random label flips and DML.
type oracleWorld struct {
	rng   *rand.Rand
	log   *world.ChangeLog
	label world.Field
	ids   []relstore.RowID
	next  int64
}

func newOracleWorld(t *testing.T, seed int64, rows int) *oracleWorld {
	db := relstore.NewDB()
	db.MustCreate(relstore.MustSchema("TOKEN",
		relstore.Column{Name: "TOK_ID", Type: relstore.TInt},
		relstore.Column{Name: "DOC_ID", Type: relstore.TInt},
		relstore.Column{Name: "STRING", Type: relstore.TString},
		relstore.Column{Name: "LABEL", Type: relstore.TString},
	))
	if err := db.DeclareHidden("TOKEN", 3); err != nil {
		t.Fatal(err)
	}
	w := &oracleWorld{rng: rand.New(rand.NewSource(seed)), log: world.NewChangeLog(db)}
	var err error
	if w.label, err = w.log.Field("TOKEN", 3); err != nil {
		t.Fatal(err)
	}
	for range rows {
		w.insert(t, w.pick(oracleWords))
	}
	w.log.Drain()
	return w
}

func (w *oracleWorld) pick(from []string) string { return from[w.rng.Intn(len(from))] }

func (w *oracleWorld) insert(t *testing.T, s string) relstore.RowID {
	id, err := w.log.Insert("TOKEN", relstore.Tuple{relstore.Int(w.next), relstore.Int(w.next / 8),
		relstore.String(s), relstore.String(w.pick(oracleLabels))})
	if err != nil {
		t.Fatal(err)
	}
	w.next++
	w.ids = append(w.ids, id)
	return id
}

func (w *oracleWorld) delete(t *testing.T, id relstore.RowID) {
	if err := w.log.DeleteRow("TOKEN", id); err != nil {
		t.Fatal(err)
	}
	w.ids = slices.DeleteFunc(w.ids, func(x relstore.RowID) bool { return x == id })
}

// step makes n random changes: mostly the sampler's label flips, with
// inserts, deletes and evidence updates mixed in.
func (w *oracleWorld) step(t *testing.T, n int) {
	for range n {
		id := w.ids[w.rng.Intn(len(w.ids))]
		var err error
		switch k := w.rng.Intn(10); {
		case k == 0:
			w.insert(t, w.pick(oracleWords))
		case k == 1 && len(w.ids) > 16:
			w.delete(t, id)
		case k == 2:
			err = w.log.UpdateFields(world.FieldRef{Rel: "TOKEN", Row: id}, []int{2}, []relstore.Value{relstore.String(w.pick(oracleWords))})
		default:
			err = w.label.Set(id, relstore.String(w.pick(oracleLabels)))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestAddSampleMatchesFullScan runs the answer-table AddSample beside the
// map-keyed full scan it replaced, on every oracle plan over rounds of
// label flips and DML, and holds the two to bit-identical counts,
// normalizers, Results, ResultsCI, Marginals and merges at every sample.
// The rounds include folds with no sample in between — burn-in, and a
// tuple that enters the answer and leaves it before the next sample —
// and a write's estimator reset. Each plan is mounted three times: a view
// read by one estimator every sample, a view first read by an estimator
// created after it already holds rows, every other round, and a view
// three estimators read at different rates.
func TestAddSampleMatchesFullScan(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for name, plan := range oraclePlans() {
			w := newOracleWorld(t, seed, 48)
			bound, err := ra.Bind(w.log.DB(), plan)
			if err != nil {
				t.Fatalf("%s: Bind: %v", name, err)
			}
			var views [3]*ivm.View
			for i := range views {
				if views[i], err = ivm.NewView(bound); err != nil {
					t.Fatalf("%s: NewView: %v", name, err)
				}
			}
			type reader struct {
				view        *ivm.View
				from, every int // first round, and the rounds between samples
				e           *Estimator
				r           *refEstimator
			}
			readers := []*reader{
				{view: views[0], from: 1, every: 1},
				{view: views[1], from: 12, every: 2},
				{view: views[2], from: 1, every: 1}, {view: views[2], from: 1, every: 1}, {view: views[2], from: 2, every: 3},
			}
			apply := func() {
				d := w.log.Drain()
				for _, v := range views {
					v.Apply(d)
				}
			}
			for round := 1; round <= 40; round++ {
				w.step(t, 4)
				apply()
				switch {
				case round%7 == 0:
					// Burn-in: fold without sampling.
					w.step(t, 6)
					apply()
				case round%5 == 0:
					// A tuple that is in the answer only between samples.
					ghost := w.insert(t, fmt.Sprintf("ghost-%d", round))
					if err := w.label.Set(ghost, relstore.String("B-PER")); err != nil {
						t.Fatal(err)
					}
					apply()
					w.delete(t, ghost)
					apply()
				}
				if round == 25 {
					// A write resets every estimator, as a serving chain's
					// applyWrite does; the views keep their slots.
					for _, rd := range readers {
						if rd.e != nil {
							rd.e, rd.r = NewEstimator(), newRefEstimator()
						}
					}
				}
				for i, rd := range readers {
					if round < rd.from || (round-rd.from)%rd.every != 0 {
						continue
					}
					if rd.e == nil {
						rd.e, rd.r = NewEstimator(), newRefEstimator()
					}
					rd.e.AddSample(rd.view.Result())
					rd.r.addSample(rd.view.Result())
					sameEstimate(t, fmt.Sprintf("seed %d %s round %d reader %d", seed, name, round, i), rd.e, rd.r)
				}
				if round%10 == 0 {
					merged, ref := NewEstimator(), newRefEstimator()
					for _, rd := range readers {
						if rd.e != nil {
							merged.Merge(rd.e.Snapshot())
							ref.merge(rd.r)
						}
					}
					sameEstimate(t, fmt.Sprintf("seed %d %s round %d merge", seed, name, round), merged, ref)
				}
			}
		}
	}
}

// TestSnapshotMergeRacesFold is the serving pattern over a real view: a
// chain goroutine folds rounds of flips and inserts of never-seen tuples
// into a view, so the answer keeps appending slots to the dictionary its
// published snapshots share, and counts and publishes a sample each
// round; meanwhile a session goroutine merges and ranks the latest
// snapshot. Run with -race: a snapshot's view of the dictionary must not
// see the chain's appends, and an estimate must not move once published.
func TestSnapshotMergeRacesFold(t *testing.T) {
	w := newOracleWorld(t, 5, 48)
	bound, err := ra.Bind(w.log.DB(), oraclePlans()["query1"])
	if err != nil {
		t.Fatal(err)
	}
	view, err := ivm.NewView(bound)
	if err != nil {
		t.Fatal(err)
	}
	est := NewEstimator()
	// published carries the round a snapshot was taken in beside it, as
	// a serving chain hands its epoch off beside its snapshot.
	type published struct {
		*Snapshot
		round int64
	}
	var latest atomic.Pointer[published]
	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 1; round <= 300; round++ {
			w.step(t, 4)
			id := w.insert(t, fmt.Sprintf("new-%d", round))
			if err := w.label.Set(id, relstore.String("B-PER")); err != nil {
				t.Error(err)
				return
			}
			view.Apply(w.log.Drain())
			est.AddSample(view.Result())
			latest.Store(&published{est.Snapshot(), int64(round)})
		}
	}()
	spec := ra.ResultSpec{Order: []ra.ResultOrder{{ByProb: true, Desc: true}}, Limit: 10}
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		s := latest.Load()
		if s == nil {
			continue
		}
		merged := NewEstimator()
		merged.Merge(s.Snapshot)
		merged.Merge(s.Snapshot)
		cis := merged.ResultsCI(1.96)
		if merged.Samples() != 2*s.Samples() || s.Samples() != s.round {
			t.Fatalf("epoch %d: snapshot of %d samples merged into %d", s.round, s.Samples(), merged.Samples())
		}
		if got, want := merged.Results(), s.Results(); !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d: a merge of the snapshot with itself ranks differently from the snapshot", s.round)
		}
		for _, ci := range cis {
			if ci.P <= 0 || ci.P > 1 {
				t.Fatalf("epoch %d: %v at p=%v", s.round, ci.Tuple, ci.P)
			}
		}
		SortTupleCIs(cis, spec)
	}
}
