package ivm

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"factordb/internal/ra"
	"factordb/internal/relstore"
)

// overlappingPlans builds a family of plans reading one selection of
// TOKEN: a projection, a distinct projection, and a grouped count, plus
// one unrelated plan.
func overlappingPlans() (overlapping []ra.Plan, unrelated ra.Plan) {
	persons := func() ra.Plan {
		return ra.NewSelect(ra.NewScan("TOKEN", "T"),
			ra.Eq(ra.Col(ra.C("T", "LABEL")), ra.Const(relstore.String("B-PER"))))
	}
	overlapping = []ra.Plan{
		ra.NewProject(persons(), ra.C("T", "STRING")),
		ra.NewDistinct(ra.NewProject(persons(), ra.C("T", "DOC_ID"))),
		ra.NewGroupAgg(persons(), []ra.ColRef{ra.C("T", "DOC_ID")},
			ra.Agg{Fn: ra.FnCount, As: "N"}),
	}
	unrelated = ra.NewProject(
		ra.NewSelect(ra.NewScan("TOKEN", "T"),
			ra.Eq(ra.Col(ra.C("T", "LABEL")), ra.Const(relstore.String("B-ORG")))),
		ra.C("T", "STRING"))
	return overlapping, unrelated
}

// perDocReaders are three plans reading perDoc's group-agg: a
// projection, a selection and an ORDER BY … LIMIT.
func perDocReaders() []ra.Plan {
	n := ra.C("", "N")
	return []ra.Plan{
		ra.NewProject(perDoc(), n),
		ra.NewSelect(perDoc(), ra.Cmp(ra.OpGe, ra.Col(n), ra.Const(relstore.Int(2)))),
		ra.NewOrderLimit(perDoc(), []ra.SortKey{{Col: n, Desc: true}, {Col: ra.C("T", "DOC_ID")}}, 3),
	}
}

// TestViewMidStreamMount mounts views after the world has drifted: the
// late views initialize from the current base, and they and the veteran
// stay exact afterwards.
func TestViewMidStreamMount(t *testing.T) {
	db, tok, ids := buildTokenDB(150, 11)
	plans, unrelated := overlappingPlans()
	b1 := mustBind(t, db, plans[0])
	v1, err := NewView(b1)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(12))
	apply := func(views ...*View) {
		d := NewBaseDelta()
		for f := 0; f < 5; f++ {
			flipLabel(rng, tok, ids, d)
		}
		for _, v := range views {
			v.Apply(d)
		}
	}
	for i := 0; i < 15; i++ {
		apply(v1)
	}

	// Late arrivals: one overlapping the veteran's plan, one unrelated.
	b2, b3 := mustBind(t, db, plans[2]), mustBind(t, db, unrelated)
	v2, err := NewView(b2)
	if err != nil {
		t.Fatal(err)
	}
	v3, err := NewView(b3)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 15; i++ {
		apply(v1, v2, v3)
		checkExact(t, "veteran", v1, b1)
		checkExact(t, "late overlapping view", v2, b2)
		checkExact(t, "late unrelated view", v3, b3)
	}
}

// orgPersonJoin is Query 4's join without its projection: B-ORG tokens
// joined to B-PER tokens of the same document. Bind prunes both inputs,
// so the subtree is projections (scratch output) under a join (scratch
// output): every operator in it is unowned.
func orgPersonJoin() ra.Plan {
	label := func(alias, l string) ra.Plan {
		return ra.NewSelect(ra.NewScan("TOKEN", alias),
			ra.Eq(ra.Col(ra.C(alias, "LABEL")), ra.Const(relstore.String(l))))
	}
	return ra.NewJoin(label("T1", "B-ORG"), label("T2", "B-PER"),
		[]ra.EquiCond{{Left: ra.C("T1", "DOC_ID"), Right: ra.C("T2", "DOC_ID")}}, nil)
}

// joinReaders are three plans over orgPersonJoin: a projection, a
// grouped count and a distinct projection.
func joinReaders() []ra.Plan {
	str := ra.C("T2", "STRING")
	return []ra.Plan{
		ra.NewProject(orgPersonJoin(), str),
		ra.NewGroupAgg(orgPersonJoin(), []ra.ColRef{str}, ra.Agg{Fn: ra.FnCount, As: "N"}),
		ra.NewDistinct(ra.NewProject(orgPersonJoin(), str)),
	}
}

func mustBind(t *testing.T, db *relstore.DB, p ra.Plan) *ra.Bound {
	t.Helper()
	b, err := ra.Bind(db, p)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkExact fails unless v holds exactly the fresh evaluation of b, each
// stored tuple still finding its own slot — a tuple kept from a scratch
// buffer without copying does not.
func checkExact(t *testing.T, what string, v *View, b *ra.Bound) {
	t.Helper()
	full, err := ra.Eval(b)
	if err != nil {
		t.Fatal(err)
	}
	if !resultBag(v).Equal(full) {
		t.Fatalf("%s: view diverged from full evaluation\nview: %v\nfull: %v", what, dump(resultBag(v)), dump(full))
	}
	a := v.Result()
	for s := int32(0); int(s) < a.Slots(); s++ {
		r := a.Tuple(s)
		if got := a.find(hashKey(r.AppendKey(nil)), r); got != s {
			t.Fatalf("%s: answer slot %d now reads %v, found at slot %d", what, s, r, got)
		}
	}
}

// canaryOp makes its child's output as hostile as the ownership contract
// allows: every tuple is emitted from one scratch buffer that is
// scribbled over the moment the consumer returns. A consumer that keeps
// such a tuple without cloning it ends up holding the scribble.
type canaryOp struct {
	op
	buf relstore.Tuple
}

func (c *canaryOp) owned() bool { return false }

func (c *canaryOp) hostile(out consumer) consumer {
	return pushFunc(func(t relstore.Tuple, n int64) {
		c.buf = append(c.buf[:0], t...)
		out.push(c.buf, n)
		for i := range c.buf {
			c.buf[i] = relstore.String("canary")
		}
	})
}

func (c *canaryOp) init(out consumer) error         { return c.op.init(c.hostile(out)) }
func (c *canaryOp) apply(d BaseDelta, out consumer) { c.op.apply(d, c.hostile(out)) }

// canaryCompile builds a private operator tree with a canary above every
// operator.
func canaryCompile(b *ra.Bound) (op, error) {
	o, err := compileNode(b, canaryCompile)
	if err != nil {
		return nil, err
	}
	return &canaryOp{op: o}, nil
}

// perDoc is a group-agg whose groups come and go: each document's B-PER
// count, first name and mean position. A document's group empties, and
// its slot is freed, when its last B-PER token flips away.
func perDoc() ra.Plan {
	return ra.NewGroupAgg(perSelect(), []ra.ColRef{ra.C("T", "DOC_ID")},
		ra.Agg{Fn: ra.FnCount, As: "N"},
		ra.Agg{Fn: ra.FnMin, Arg: ra.C("T", "STRING"), As: "FIRST"},
		ra.Agg{Fn: ra.FnAvg, Arg: ra.C("T", "TOK_ID"), As: "MEAN"})
}

// doc2Persons is a global group-agg over document 2's B-PER tokens: its
// MIN and AVG are undefined, and its row absent, while there are none.
func doc2Persons() ra.Plan {
	return ra.NewGroupAgg(
		ra.NewSelect(ra.NewScan("TOKEN", "T"), ra.And(
			ra.Eq(ra.Col(ra.C("T", "LABEL")), ra.Const(relstore.String("B-PER"))),
			ra.Eq(ra.Col(ra.C("T", "DOC_ID")), ra.Const(relstore.Int(2))))),
		nil,
		ra.Agg{Fn: ra.FnMin, Arg: ra.C("T", "STRING"), As: "FIRST"},
		ra.Agg{Fn: ra.FnAvg, Arg: ra.C("T", "TOK_ID"), As: "MEAN"})
}

// relabelDoc sets the label of every live token of document doc, recording
// the changes in d.
func relabelDoc(tok *relstore.Relation, ids []relstore.RowID, doc int64, label string, d BaseDelta) {
	for _, id := range ids {
		old, _ := tok.Get(id)
		if old[1].AsInt() != doc || old[3].AsString() == label {
			continue
		}
		if err := tok.SetCol(id, 3, relstore.String(label)); err != nil {
			panic(err)
		}
		cur, _ := tok.Get(id)
		d.Add("TOKEN", old, -1)
		d.Add("TOKEN", cur, 1)
	}
}

// TestNoConsumerKeepsAnUnownedTuple runs every retaining consumer — join
// sides, distinct state, the top-k buffer, MIN/MAX value
// sets, view results — over canary producers, the scan leaves included,
// scribbles over each base delta once its round is over (as the change
// log that drained it would), and holds each view to the fresh
// evaluation. internal/ra's TestNoLayerKeepsAScratchTuple does the same
// with the store's own scratch tuples and a real change log.
//
// Every plan also runs without canaries, so each consumer meets its real
// producer: a group-agg, which pushes rows straight from the slots it
// rewrites, feeds a join side (Query 3's shape), DISTINCT, a selection
// and ORDER BY … LIMIT. Every other round empties document 2
// of B-PER tokens and the next-but-one refills it, so a group leaves its
// slot and comes back, and doc2Persons's MIN/AVG row goes undefined and
// back.
func TestNoConsumerKeepsAnUnownedTuple(t *testing.T) {
	str := ra.C("T2", "STRING")
	overlapping, unrelated := overlappingPlans()
	plans := slices.Concat(joinReaders(), overlapping, perDocReaders(), []ra.Plan{
		unrelated,
		orgPersonJoin(),
		ra.NewOrderLimit(ra.NewProject(orgPersonJoin(), str, ra.C("T1", "TOK_ID")),
			[]ra.SortKey{{Col: str}, {Col: ra.C("T1", "TOK_ID"), Desc: true}}, 5),
		ra.NewGroupAgg(orgPersonJoin(), []ra.ColRef{ra.C("T1", "DOC_ID")},
			ra.Agg{Fn: ra.FnMin, Arg: str, As: "FIRST"}, ra.Agg{Fn: ra.FnMax, Arg: ra.C("T2", "TOK_ID"), As: "LAST"}),
		perDoc(),
		query3Plan(),
		ra.NewDistinct(ra.NewProject(perDoc(), ra.C("", "N"))),
		doc2Persons(),
	})
	global := len(plans) - 1
	db, tok, ids := buildTokenDB(160, 35)
	type subject struct {
		b     *ra.Bound
		views []*View // with canaries, then without
	}
	var subjects []subject
	for _, p := range plans {
		b := mustBind(t, db, p)
		root, err := canaryCompile(b)
		if err != nil {
			t.Fatal(err)
		}
		canaried, err := newViewFrom(root)
		if err != nil {
			t.Fatal(err)
		}
		bare, err := NewView(b)
		if err != nil {
			t.Fatal(err)
		}
		subjects = append(subjects, subject{b, []*View{canaried, bare}})
	}
	hows := []string{"private tree", "private tree without canaries"}
	check := func() {
		t.Helper()
		for i, s := range subjects {
			for j, v := range s.views {
				checkExact(t, fmt.Sprintf("plan %d, %s", i, hows[j]), v, s.b)
			}
		}
	}
	check()
	rng := rand.New(rand.NewSource(36))
	for round := 0; round < 20; round++ {
		d := NewBaseDelta()
		for f := 0; f < 6; f++ {
			flipLabel(rng, tok, ids, d)
		}
		if len(ids) > 40 {
			ids = deleteRow(rng, tok, ids, d)
		}
		switch round % 4 {
		case 1:
			relabelDoc(tok, ids, 2, "O", d)
		case 3:
			relabelDoc(tok, ids, 2, "B-PER", d)
		}
		for _, s := range subjects {
			for _, v := range s.views {
				v.Apply(d)
			}
		}
		// The round is over: a change log would now refill its records.
		for _, r := range d["TOKEN"] {
			for i := range r.Tuple {
				r.Tuple[i] = relstore.String("canary")
			}
		}
		check()
		if want := map[int]int{1: 0, 3: 1}[round%4]; round%2 == 1 && subjects[global].views[1].Result().Len() != want {
			t.Fatalf("round %d: document 2's global row is present %d times, want %d", round, subjects[global].views[1].Result().Len(), want)
		}
	}
}
