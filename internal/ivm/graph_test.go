package ivm

import (
	"fmt"
	"math/rand"
	"testing"

	"factordb/internal/ra"
	"factordb/internal/relstore"
)

// graphPlans builds a family of plans reading one selection of TOKEN: a
// projection, a distinct projection, and a grouped count, each over a
// stage of its own (stateless nodes are not shared), plus one unrelated
// plan.
func graphPlans() (shared []ra.Plan, unrelated ra.Plan) {
	persons := func() ra.Plan {
		return ra.NewSelect(ra.NewScan("TOKEN", "T"),
			ra.Eq(ra.Col(ra.C("T", "LABEL")), ra.Const(relstore.String("B-PER"))))
	}
	shared = []ra.Plan{
		ra.NewProject(persons(), ra.C("T", "STRING")),
		ra.NewDistinct(ra.NewProject(persons(), ra.C("T", "DOC_ID"))),
		ra.NewGroupAgg(persons(), []ra.ColRef{ra.C("T", "DOC_ID")},
			ra.Agg{Fn: ra.FnCount, As: "N"}),
	}
	unrelated = ra.NewProject(
		ra.NewSelect(ra.NewScan("TOKEN", "T"),
			ra.Eq(ra.Col(ra.C("T", "LABEL")), ra.Const(relstore.String("B-ORG")))),
		ra.C("T", "STRING"))
	return shared, unrelated
}

// perDocReaders are three plans reading one stateful prefix, perDoc's
// group-agg: a projection, a selection and an ORDER BY … LIMIT.
func perDocReaders() []ra.Plan {
	n := ra.C("", "N")
	return []ra.Plan{
		ra.NewProject(perDoc(), n),
		ra.NewSelect(perDoc(), ra.Cmp(ra.OpGe, ra.Col(n), ra.Const(relstore.Int(2)))),
		ra.NewOrderLimit(perDoc(), []ra.SortKey{{Col: n, Desc: true}, {Col: ra.C("T", "DOC_ID")}}, 3),
	}
}

// TestGraphSharesSubtreesAndStaysExact is the core oracle property of the
// shared graph: several views mounted over a common prefix must track a
// from-scratch evaluation through random delta batches, while physically
// sharing the prefix operators.
func TestGraphSharesSubtreesAndStaysExact(t *testing.T) {
	db, tok, ids := buildTokenDB(200, 42)
	g := NewGraph()
	plans, _ := graphPlans()

	var views []*View
	var bounds []*ra.Bound
	mount := func(plans []ra.Plan) {
		for _, p := range plans {
			b, err := ra.Bind(db, ra.Canonicalize(p))
			if err != nil {
				t.Fatal(err)
			}
			v, err := g.Mount(b)
			if err != nil {
				t.Fatal(err)
			}
			views = append(views, v)
			bounds = append(bounds, b)
		}
	}
	mount(plans)
	before := g.Nodes()
	mount(perDocReaders())

	// Private trees: 3 operators per reader (its own operator, the
	// group-agg, the selection's stage), 9 in all; the shared graph
	// needs the group-agg and its stage once, plus one per reader: 5.
	if got := g.Nodes() - before; got >= 9 {
		t.Errorf("the readers added %d nodes — no sharing happened", got)
	}
	// A hit lands on the highest shared node only (recursion stops there):
	// one per later reader reusing the group-agg.
	if g.SubtreeHits() < 2 {
		t.Errorf("subtree hits = %d, want >= 2 (prefix reused by two later views)", g.SubtreeHits())
	}

	rng := rand.New(rand.NewSource(43))
	for batch := 0; batch < 30; batch++ {
		d := NewBaseDelta()
		for f := 0; f < 5; f++ {
			flipLabel(rng, tok, ids, d)
		}
		g.NextRound()
		for i, v := range views {
			v.Apply(d)
			full, err := ra.Eval(bounds[i])
			if err != nil {
				t.Fatal(err)
			}
			if !resultBag(v).Equal(full) {
				t.Fatalf("batch %d view %d diverged from full evaluation", batch, i)
			}
		}
	}
}

// TestGraphExactViewSharing mounts the same plan twice: the root operator
// is shared (refcounted), both views stay exact, and unmounting one keeps
// the other alive.
func TestGraphExactViewSharing(t *testing.T) {
	db, tok, ids := buildTokenDB(120, 7)
	g := NewGraph()
	plans, _ := graphPlans()
	b1, err := ra.Bind(db, ra.Canonicalize(plans[0]))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := ra.Bind(db, ra.Canonicalize(plans[0]))
	if err != nil {
		t.Fatal(err)
	}
	v1, err := g.Mount(b1)
	if err != nil {
		t.Fatal(err)
	}
	nodesAfterFirst := g.Nodes()
	v2, err := g.Mount(b2)
	if err != nil {
		t.Fatal(err)
	}
	if g.Nodes() != nodesAfterFirst {
		t.Errorf("mounting an identical plan grew the graph: %d -> %d", nodesAfterFirst, g.Nodes())
	}

	rng := rand.New(rand.NewSource(8))
	step := func() {
		d := NewBaseDelta()
		for f := 0; f < 4; f++ {
			flipLabel(rng, tok, ids, d)
		}
		g.NextRound()
		v1.Apply(d)
		if v2 != nil {
			v2.Apply(d)
		}
	}
	for i := 0; i < 10; i++ {
		step()
	}
	if !resultBag(v1).Equal(resultBag(v2)) {
		t.Fatal("twin views over one shared root diverged")
	}

	g.Unmount(v2)
	v2 = nil
	if g.Nodes() != nodesAfterFirst {
		t.Errorf("unmounting one of two twins evicted shared nodes: %d nodes", g.Nodes())
	}
	for i := 0; i < 10; i++ {
		step()
	}
	full, err := ra.Eval(b1)
	if err != nil {
		t.Fatal(err)
	}
	if !resultBag(v1).Equal(full) {
		t.Fatal("surviving twin diverged after its sibling unmounted")
	}

	g.Unmount(v1)
	if g.Nodes() != 0 {
		t.Errorf("graph not empty after final unmount: %d nodes", g.Nodes())
	}
}

// TestGraphMidStreamMount mounts a second view after the world has
// drifted: the reused prefix re-initializes from the current base, and
// both the newcomer and the veteran stay exact afterwards.
func TestGraphMidStreamMount(t *testing.T) {
	db, tok, ids := buildTokenDB(150, 11)
	g := NewGraph()
	plans, unrelated := graphPlans()
	b1, err := ra.Bind(db, ra.Canonicalize(plans[0]))
	if err != nil {
		t.Fatal(err)
	}
	v1, err := g.Mount(b1)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(12))
	apply := func(views ...*View) {
		d := NewBaseDelta()
		for f := 0; f < 5; f++ {
			flipLabel(rng, tok, ids, d)
		}
		g.NextRound()
		for _, v := range views {
			v.Apply(d)
		}
	}
	for i := 0; i < 15; i++ {
		apply(v1)
	}

	// Late arrivals: one sharing the prefix, one unrelated.
	b2, err := ra.Bind(db, ra.Canonicalize(plans[2]))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := g.Mount(b2)
	if err != nil {
		t.Fatal(err)
	}
	b3, err := ra.Bind(db, ra.Canonicalize(unrelated))
	if err != nil {
		t.Fatal(err)
	}
	v3, err := g.Mount(b3)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 15; i++ {
		apply(v1, v2, v3)
		for j, pair := range []struct {
			v *View
			b *ra.Bound
		}{{v1, b1}, {v2, b2}, {v3, b3}} {
			full, err := ra.Eval(pair.b)
			if err != nil {
				t.Fatal(err)
			}
			if !resultBag(pair.v).Equal(full) {
				t.Fatalf("view %d diverged after mid-stream mount", j)
			}
		}
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

// joinSharers are three plans that read the same columns of
// orgPersonJoin, so a graph gives them one join operator; the first and
// the last also share the projection above it.
func joinSharers() []ra.Plan {
	str := ra.C("T2", "STRING")
	return []ra.Plan{
		ra.NewProject(orgPersonJoin(), str),
		ra.NewGroupAgg(orgPersonJoin(), []ra.ColRef{str}, ra.Agg{Fn: ra.FnCount, As: "N"}),
		ra.NewDistinct(ra.NewProject(orgPersonJoin(), str)),
	}
}

func mustBind(t *testing.T, db *relstore.DB, p ra.Plan) *ra.Bound {
	t.Helper()
	b, err := ra.Bind(db, ra.Canonicalize(p))
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

// TestGraphNodeGainsAndLosesAConsumer takes the join node of a mounted
// view from one consumer to two and back between rounds: pass-through,
// then memoized, then pass-through again, both views exact every round.
func TestGraphNodeGainsAndLosesAConsumer(t *testing.T) {
	db, tok, ids := buildTokenDB(160, 31)
	g := NewGraph()
	plans := joinSharers()
	b1, b2 := mustBind(t, db, plans[0]), mustBind(t, db, plans[1])
	v1, err := g.Mount(b1)
	if err != nil {
		t.Fatal(err)
	}
	join := g.nodes[b1.Children[0].Fingerprint()]
	if join == nil || join.owned() {
		t.Fatalf("no unowned join node under the first view: %+v", join)
	}

	rng := rand.New(rand.NewSource(32))
	var v2 *View
	rounds := func(n, wantRefs int) {
		t.Helper()
		if join.refs != wantRefs {
			t.Fatalf("join node has %d consumers, want %d", join.refs, wantRefs)
		}
		for i := 0; i < n; i++ {
			d := NewBaseDelta()
			for f := 0; f < 6; f++ {
				flipLabel(rng, tok, ids, d)
			}
			g.NextRound()
			v1.Apply(d)
			checkExact(t, "first view", v1, b1)
			if v2 != nil {
				v2.Apply(d)
				checkExact(t, "second view", v2, b2)
			}
		}
	}
	rounds(8, 1)
	if v2, err = g.Mount(b2); err != nil {
		t.Fatal(err)
	}
	rounds(8, 2)
	g.Unmount(v2)
	v2 = nil
	rounds(8, 1)
}

// countingOp counts the delta rounds pushed through an operator.
type countingOp struct {
	op
	applies int
}

func (c *countingOp) apply(d BaseDelta, out consumer) {
	c.applies++
	c.op.apply(d, out)
}

// TestGraphSharedUnownedSubtreeRunsOncePerRound mounts three views over
// one pruned join: however many consumers a node has — the join and the
// projection above it are unowned and shared — its operator sees each
// round's delta exactly once.
func TestGraphSharedUnownedSubtreeRunsOncePerRound(t *testing.T) {
	db, tok, ids := buildTokenDB(160, 33)
	g := NewGraph()
	var views []*View
	var bounds []*ra.Bound
	for _, p := range joinSharers() {
		b := mustBind(t, db, p)
		v, err := g.Mount(b)
		if err != nil {
			t.Fatal(err)
		}
		views, bounds = append(views, v), append(bounds, b)
	}
	shared, sharedUnowned := 0, 0
	counters := make(map[string]*countingOp)
	for fp, n := range g.nodes {
		if n.refs > 1 {
			shared++
			if !n.owned() {
				sharedUnowned++
			}
		}
		c := &countingOp{op: n.inner}
		n.inner, counters[fp] = c, c
	}
	if shared < 2 || sharedUnowned < 2 {
		t.Fatalf("graph shares %d nodes, %d of them unowned; want the join and a projection shared", shared, sharedUnowned)
	}
	rng := rand.New(rand.NewSource(34))
	for round := 1; round <= 12; round++ {
		d := NewBaseDelta()
		for f := 0; f < 6; f++ {
			flipLabel(rng, tok, ids, d)
		}
		g.NextRound()
		for i, v := range views {
			v.Apply(d)
			checkExact(t, "shared view", v, bounds[i])
		}
		for fp, c := range counters {
			if c.applies != round {
				t.Fatalf("round %d: node %s (refs %d) ran %d times", round, fp, g.nodes[fp].refs, c.applies)
			}
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
// sides, difference and distinct state, the top-k buffer, MIN/MAX value
// sets, view results, a shared node's memo — over canary producers, the
// scan leaves included, in a private tree and in a graph whose nodes are
// shared and unshared, scribbles over each base delta once its round is
// over (as the change log that drained it would), and holds each view to
// the fresh evaluation. internal/ra's TestNoLayerKeepsAScratchTuple does
// the same with the store's own scratch tuples and a real change log.
//
// Every plan also runs without canaries, so each consumer meets its real
// producer: a group-agg, which pushes rows straight from the slots it
// rewrites, feeds a join side (Query 3's shape), DISTINCT, EXCEPT,
// ORDER BY … LIMIT, and — perDoc being mounted three times on one graph
// — a shared node's recording. Every other round empties document 2 of
// B-PER tokens and the next-but-one refills it, so a group leaves its
// slot and comes back, and doc2Persons's MIN/AVG row goes undefined and
// back.
func TestNoConsumerKeepsAnUnownedTuple(t *testing.T) {
	str := ra.C("T2", "STRING")
	docID := ra.C("T", "DOC_ID")
	orgDocs := ra.NewGroupAgg(
		ra.NewSelect(ra.NewScan("TOKEN", "T"), ra.Eq(ra.Col(ra.C("T", "LABEL")), ra.Const(relstore.String("B-ORG")))),
		[]ra.ColRef{docID}, ra.Agg{Fn: ra.FnCount, As: "N"})
	plans := append(joinSharers(),
		orgPersonJoin(),
		ra.NewDiff(ra.NewProject(ra.NewScan("TOKEN", "T"), ra.C("T", "STRING")), ra.NewProject(orgPersonJoin(), str)),
		ra.NewUnion(ra.NewProject(perSelect(), ra.C("T", "STRING")), ra.NewProject(orgPersonJoin(), str)),
		ra.NewOrderLimit(ra.NewProject(orgPersonJoin(), str, ra.C("T1", "TOK_ID")),
			[]ra.SortKey{{Col: str}, {Col: ra.C("T1", "TOK_ID"), Desc: true}}, 5),
		ra.NewGroupAgg(orgPersonJoin(), []ra.ColRef{ra.C("T1", "DOC_ID")},
			ra.Agg{Fn: ra.FnMin, Arg: str, As: "FIRST"}, ra.Agg{Fn: ra.FnMax, Arg: ra.C("T2", "TOK_ID"), As: "LAST"}),
		perDoc(),
		query3Plan(),
		ra.NewDistinct(ra.NewProject(perDoc(), ra.C("", "N"))),
		ra.NewDiff(ra.NewProject(perDoc(), docID), ra.NewProject(orgDocs, docID)),
		ra.NewOrderLimit(perDoc(), []ra.SortKey{{Col: ra.C("", "N"), Desc: true}, {Col: docID}}, 3),
		doc2Persons(),
	)
	global := len(plans) - 1
	db, tok, ids := buildTokenDB(160, 35)
	g, plain := NewGraph(), NewGraph()
	type subject struct {
		b     *ra.Bound
		views []*View // private and graph-mounted, with canaries, then without
	}
	var subjects []subject
	for _, p := range plans {
		b := mustBind(t, db, p)
		root, err := canaryCompile(b)
		if err != nil {
			t.Fatal(err)
		}
		private, err := newViewFrom(root)
		if err != nil {
			t.Fatal(err)
		}
		// Mount by hand so the canaries are in place before init runs:
		// operators new to the graph get one, reused ones have theirs.
		node, err := g.mountNode(b)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range g.nodes {
			if _, ok := n.inner.(*canaryOp); !ok {
				n.inner = &canaryOp{op: n.inner}
			}
		}
		shared, err := newViewFrom(node)
		if err != nil {
			t.Fatal(err)
		}
		bare, err := NewView(b)
		if err != nil {
			t.Fatal(err)
		}
		mounted, err := plain.Mount(b)
		if err != nil {
			t.Fatal(err)
		}
		subjects = append(subjects, subject{b, []*View{private, shared, bare, mounted}})
	}
	if n := plain.nodes[subjects[global-5].b.Fingerprint()]; n == nil || n.refs < 2 || n.owned() {
		t.Fatalf("perDoc is not an unowned node shared by several views: %+v", n)
	}
	hows := []string{"private tree", "graph", "private tree without canaries", "graph without canaries"}
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
		g.NextRound()
		plain.NextRound()
		for _, s := range subjects {
			for _, v := range s.views {
				v.Apply(d)
			}
		}
		// The round is over: a change log would now take its arena back.
		for _, r := range d["TOKEN"] {
			for i := range r.Tuple {
				r.Tuple[i] = relstore.String("canary")
			}
		}
		check()
		if want := map[int]int{1: 0, 3: 1}[round%4]; round%2 == 1 && subjects[global].views[3].Result().Len() != want {
			t.Fatalf("round %d: document 2's global row is present %d times, want %d", round, subjects[global].views[3].Result().Len(), want)
		}
	}
}
