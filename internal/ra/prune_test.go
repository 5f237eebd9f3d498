package ra_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"factordb/internal/exp"
	"factordb/internal/ivm"
	"factordb/internal/ra"
	"factordb/internal/relstore"
	"factordb/internal/sqlparse"
)

var (
	pruneLabels  = []string{"O", "B-PER", "I-PER", "B-ORG", "B-LOC"}
	pruneStrings = []string{"Boston", "Clinton", "IBM", "saw", "the"}
)

// pruneWorld is a small possible world with the NER TOKEN schema plus a
// DOC relation, drawn from tiny domains so that projecting a join input
// onto its read columns folds many rows into one.
type pruneWorld struct {
	db       *relstore.DB
	tok, doc *relstore.Relation
	ids      []relstore.RowID
	next     int64
	rng      *rand.Rand
}

func newPruneWorld(seed int64, rows int) *pruneWorld {
	w := &pruneWorld{db: relstore.NewDB(), rng: rand.New(rand.NewSource(seed))}
	w.tok = w.db.MustCreate(relstore.MustSchema("TOKEN",
		relstore.Column{Name: "TOK_ID", Type: relstore.TInt},
		relstore.Column{Name: "DOC_ID", Type: relstore.TInt},
		relstore.Column{Name: "STRING", Type: relstore.TString},
		relstore.Column{Name: "LABEL", Type: relstore.TString},
		relstore.Column{Name: "TRUTH", Type: relstore.TString},
	))
	w.doc = w.db.MustCreate(relstore.MustSchema("DOC",
		relstore.Column{Name: "ID", Type: relstore.TInt},
		relstore.Column{Name: "SOURCE", Type: relstore.TString},
		relstore.Column{Name: "YEAR", Type: relstore.TInt},
	))
	for d := int64(0); d < 4; d++ {
		// Two DOC rows per id, sometimes identical: multiplicities above 1.
		for c := 0; c < 2; c++ {
			w.doc.Insert(relstore.Tuple{relstore.Int(d),
				relstore.String([]string{"wire", "blog"}[w.rng.Intn(2)]), relstore.Int(2000 + d%2)})
		}
	}
	for i := 0; i < rows; i++ {
		w.insert(nil)
	}
	return w
}

func (w *pruneWorld) randomToken() relstore.Tuple {
	// TOK_ID repeats now and then, so whole rows do too.
	id := w.next
	if w.next > 0 && w.rng.Intn(4) == 0 {
		id = w.rng.Int63n(w.next)
	}
	w.next++
	return relstore.Tuple{
		relstore.Int(id),
		relstore.Int(w.rng.Int63n(4)),
		relstore.String(pruneStrings[w.rng.Intn(len(pruneStrings))]),
		relstore.String(pruneLabels[w.rng.Intn(len(pruneLabels))]),
		relstore.String("O"),
	}
}

// insert, remove and relabel change the stored TOKEN relation and record
// the signed rows in d (nil while the world is being built).
func (w *pruneWorld) insert(d ivm.BaseDelta) {
	t := w.randomToken()
	id, err := w.tok.Insert(t)
	if err != nil {
		panic(err)
	}
	w.ids = append(w.ids, id)
	if d != nil {
		d.Add("TOKEN", t, 1)
	}
}

func (w *pruneWorld) remove(d ivm.BaseDelta) {
	i := w.rng.Intn(len(w.ids))
	old, _ := w.tok.Get(w.ids[i])
	if err := w.tok.Delete(w.ids[i]); err != nil {
		panic(err)
	}
	w.ids = append(w.ids[:i], w.ids[i+1:]...)
	d.Add("TOKEN", old, -1)
}

func (w *pruneWorld) relabel(d ivm.BaseDelta) {
	id := w.ids[w.rng.Intn(len(w.ids))]
	old, _ := w.tok.Get(id)
	if err := w.tok.SetCol(id, 3, relstore.String(pruneLabels[w.rng.Intn(len(pruneLabels))])); err != nil {
		panic(err)
	}
	cur, _ := w.tok.Get(id)
	d.Add("TOKEN", old, -1)
	d.Add("TOKEN", cur, 1)
}

func (w *pruneWorld) randomDelta() ivm.BaseDelta {
	d := ivm.NewBaseDelta()
	for i := 0; i < 4; i++ {
		switch k := w.rng.Intn(4); {
		case k == 0:
			w.insert(d)
		case k == 1 && len(w.ids) > 8:
			w.remove(d)
		default:
			w.relabel(d)
		}
	}
	return d
}

func mustCompile(t *testing.T, sql string) ra.Plan {
	t.Helper()
	p, _, err := sqlparse.Compile(sql)
	if err != nil {
		t.Fatalf("Compile(%q): %v", sql, err)
	}
	return p
}

// prunePlans are the paper's queries and joins built to hit every rule
// of the pruning pass. joins marks the plans that contain a join input
// with an unread column, where Bind must return a narrower tree.
func prunePlans(t *testing.T) (plans map[string]ra.Plan, joins map[string]bool) {
	lit := func(s string) ra.Expr { return ra.Const(relstore.String(s)) }
	tok := func(alias string) ra.Plan { return ra.NewScan("TOKEN", alias) }
	labelled := func(alias, label string) ra.Plan {
		return ra.NewSelect(tok(alias), ra.Eq(ra.Col(ra.C(alias, "LABEL")), lit(label)))
	}
	onDoc := func(l, r string) []ra.EquiCond {
		return []ra.EquiCond{{Left: ra.C(l, "DOC_ID"), Right: ra.C(r, "DOC_ID")}}
	}
	tokDoc := ra.NewJoin(tok("T"), ra.NewScan("DOC", "D"),
		[]ra.EquiCond{{Left: ra.C("T", "DOC_ID"), Right: ra.C("D", "ID")}}, nil)
	perStrings := ra.NewProject(
		ra.NewJoin(labelled("A", "B-ORG"), labelled("B", "B-PER"), onDoc("A", "B"), nil),
		ra.C("B", "STRING"))
	plans = map[string]ra.Plan{
		"query1":       mustCompile(t, exp.Query1),
		"query2":       mustCompile(t, exp.Query2),
		"query3":       mustCompile(t, exp.Query3),
		"query4":       mustCompile(t, exp.Query4),
		"query4ranked": mustCompile(t, exp.Query4Ranked),
		"sql-distinct": mustCompile(t, `SELECT DISTINCT T2.LABEL FROM TOKEN T1, TOKEN T2
			WHERE T1.DOC_ID=T2.DOC_ID AND T1.LABEL='B-PER'`),
		"sql-order-limit": mustCompile(t, `SELECT T2.STRING FROM TOKEN T1, TOKEN T2
			WHERE T1.DOC_ID=T2.DOC_ID AND T1.LABEL='B-ORG' ORDER BY STRING LIMIT 3`),

		// The residual filter reads a column of each side that nothing
		// above the join reads.
		"residual-both-sides": ra.NewProject(
			ra.NewJoin(tok("A"), tok("B"), onDoc("A", "B"),
				ra.Cmp(ra.OpLt, ra.Col(ra.C("A", "TOK_ID")), ra.Col(ra.C("B", "TOK_ID")))),
			ra.C("B", "LABEL")),
		// References without a qualifier, in the select above the join
		// and in the projection.
		"unqualified": ra.NewProject(
			ra.NewSelect(tokDoc, ra.And(
				ra.Eq(ra.Col(ra.C("", "SOURCE")), lit("wire")),
				ra.Cmp(ra.OpNe, ra.Col(ra.C("", "LABEL")), lit("O")))),
			ra.C("", "STRING"), ra.C("", "YEAR")),
		// Both inputs are the same subtree reading the same one column.
		"self-join-count": ra.NewGroupAgg(
			ra.NewJoin(labelled("A", "B-PER"), labelled("B", "B-PER"), onDoc("A", "B"), nil),
			[]ra.ColRef{ra.C("A", "DOC_ID")}, ra.Agg{Fn: ra.FnCount, As: "PAIRS"}),
		// The inner join's keys are dead weight to the outer join.
		"join-of-join": ra.NewProject(
			ra.NewJoin(
				ra.NewJoin(labelled("A", "B-PER"), labelled("B", "B-ORG"), onDoc("A", "B"), nil),
				ra.NewScan("DOC", "D"),
				[]ra.EquiCond{{Left: ra.C("B", "DOC_ID"), Right: ra.C("D", "ID")}}, nil),
			ra.C("A", "STRING"), ra.C("D", "SOURCE")),
		"aggregates-over-join": ra.NewGroupAgg(tokDoc, []ra.ColRef{ra.C("D", "SOURCE")},
			ra.Agg{Fn: ra.FnCountIf, Pred: ra.Eq(ra.Col(ra.C("T", "LABEL")), lit("B-PER")), As: "PERS"},
			ra.Agg{Fn: ra.FnMax, Arg: ra.C("T", "TOK_ID"), As: "LAST"},
			ra.Agg{Fn: ra.FnSum, Arg: ra.C("D", "YEAR"), As: "YEARS"}),
		"distinct-above": ra.NewDistinct(perStrings),
		"order-limit-above": ra.NewOrderLimit(perStrings,
			[]ra.SortKey{{Col: ra.C("B", "STRING"), Desc: true}}, 3),
		// Distinct and order-limit read every column of a join below
		// them, whatever is read of their own output: dropping one would
		// merge rows or move the tie-break.
		"project-over-distinct-join": ra.NewProject(
			ra.NewDistinct(ra.NewJoin(labelled("A", "B-ORG"), labelled("B", "B-PER"), onDoc("A", "B"), nil)),
			ra.C("B", "STRING")),
		"project-over-order-limit-join": ra.NewProject(
			ra.NewOrderLimit(ra.NewJoin(labelled("A", "B-ORG"), labelled("B", "B-PER"), onDoc("A", "B"), nil),
				[]ra.SortKey{{Col: ra.C("B", "LABEL")}}, 3),
			ra.C("B", "STRING")),
		// Nothing to drop: the root reads every column of the join, and a
		// side no column of which is read keeps its rows as they are.
		"join-at-root": ra.NewJoin(labelled("A", "B-ORG"), ra.NewScan("DOC", "D"),
			[]ra.EquiCond{{Left: ra.C("A", "DOC_ID"), Right: ra.C("D", "ID")}}, nil),
		"cross-unread-side": ra.NewProject(ra.NewJoin(labelled("A", "B-LOC"), ra.NewScan("DOC", "D"), nil, nil),
			ra.C("A", "TOK_ID"), ra.C("A", "DOC_ID"), ra.C("A", "STRING"), ra.C("A", "LABEL"), ra.C("A", "TRUTH")),
	}
	joins = make(map[string]bool)
	for name := range plans {
		switch name {
		case "query1", "query2", "join-at-root", "cross-unread-side":
		default:
			joins[name] = !strings.HasPrefix(name, "project-over-")
		}
	}
	return plans, joins
}

func streamBag(t *testing.T, b *ra.Bound) *ra.Bag {
	t.Helper()
	it, owned, err := ra.Stream(b)
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	out := ra.NewBag(b.Schema)
	it(func(tp relstore.Tuple, n int64) bool {
		if !owned {
			tp = tp.Clone()
		}
		out.Add(tp, n)
		return true
	})
	return out
}

// answerBag copies a view answer's present rows into a bag. It fails the
// test if a slot's tuple no longer finds its own slot — what a tuple kept
// from a scratch buffer turns into once the buffer moves on.
func answerBag(t *testing.T, a *ivm.Answer) *ra.Bag {
	t.Helper()
	out := ra.NewBag(nil)
	for s := range int32(a.Slots()) {
		tp := a.Tuple(s)
		if got := a.Slot(tp); got != s {
			t.Fatalf("answer slot %d now reads %v, found at slot %d", s, tp, got)
		}
		out.Add(tp, a.Count(s))
	}
	return out
}

func dumpBag(b *ra.Bag) string {
	var sb strings.Builder
	for _, r := range b.Rows() {
		sb.WriteString(r.Tuple.String())
		sb.WriteString("#")
		sb.WriteString(relstore.Int(r.N).String())
		sb.WriteString(" ")
	}
	return sb.String()
}

// TestPrunedBindMatchesUnpruned holds the tree Bind returns against the
// same plan bound as written: same output schema, same answer from Eval
// and Stream, and a view that tracks a from-scratch evaluation of the
// unpruned tree through random inserts, deletes and updates.
func TestPrunedBindMatchesUnpruned(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		w := newPruneWorld(seed, 40)
		plans, joins := prunePlans(t)
		type subject struct {
			name        string
			pruned, ref *ra.Bound
			view        *ivm.View
		}
		var subjects []*subject
		for name, p := range plans {
			ref, err := ra.BindUnpruned(w.db, p)
			if err != nil {
				t.Fatalf("%s: unpruned bind: %v", name, err)
			}
			pruned, err := ra.Bind(w.db, p)
			if err != nil {
				t.Fatalf("%s: Bind: %v", name, err)
			}
			if narrowed := pruned.Source != p; narrowed != joins[name] {
				t.Errorf("%s: Bind narrowed the tree = %v, want %v\n%s",
					name, narrowed, joins[name], strings.Join(ra.Render(pruned.Source), "\n"))
			}
			if !reflect.DeepEqual(pruned.Schema, ref.Schema) {
				t.Errorf("%s: output schema changed: %v, want %v", name, pruned.Schema.Cols, ref.Schema.Cols)
			}
			s := &subject{name: name, pruned: pruned, ref: ref}
			if s.view, err = ivm.NewView(pruned); err != nil {
				t.Fatalf("%s: NewView: %v", name, err)
			}
			subjects = append(subjects, s)
		}
		check := func(round int) {
			for _, s := range subjects {
				want, err := ra.Eval(s.ref)
				if err != nil {
					t.Fatalf("%s: Eval(unpruned): %v", s.name, err)
				}
				got, err := ra.Eval(s.pruned)
				if err != nil {
					t.Fatalf("%s: Eval: %v", s.name, err)
				}
				for what, bag := range map[string]*ra.Bag{
					"Eval": got, "Stream": streamBag(t, s.pruned),
					"NewView": answerBag(t, s.view.Result()),
				} {
					if !bag.Equal(want) {
						t.Fatalf("seed %d round %d %s: %s over the pruned tree differs from the unpruned answer\n got: %s\nwant: %s",
							seed, round, s.name, what, dumpBag(bag), dumpBag(want))
					}
				}
			}
		}
		check(0)
		for round := 1; round <= 25; round++ {
			d := w.randomDelta()
			for _, s := range subjects {
				s.view.Apply(d)
			}
			check(round)
		}
	}
}

// TestPruneRendering pins what Bind does to the paper's queries: Query 1
// and 2 have no join and bind to the tree they were written as (their
// fingerprints are pinned in sqlparse's fingerprints.golden), Query 3
// and 4 get a projection under each join input that carries unread
// columns.
func TestPruneRendering(t *testing.T) {
	w := newPruneWorld(1, 10)
	for _, sql := range []string{exp.Query1, exp.Query2} {
		p := mustCompile(t, sql)
		b, err := ra.Bind(w.db, p)
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := ra.BindUnpruned(w.db, p)
		if b.Source != p || b.Fingerprint() != ref.Fingerprint() {
			t.Errorf("%s: Bind changed a plan without a join:\n%s", sql, strings.Join(ra.Render(b.Source), "\n"))
		}
	}
	for _, tc := range []struct{ sql, want string }{
		{exp.Query3, `
Project[T.DOC_ID]
  Join[T.DOC_ID=_g0.DOC_ID]
    Project[T.DOC_ID]
      Scan(TOKEN AS T)
    Project[_g0.DOC_ID]
      Select[(_sqa0 = _sqb0)]
        GroupAgg[_g0.DOC_ID; COUNT_IF((_g0.LABEL = "B-PER")) AS _sqa0, COUNT_IF((_g0.LABEL = "B-ORG")) AS _sqb0]
          Scan(TOKEN AS _g0)`},
		{exp.Query4, `
Project[T2.STRING]
  Join[T1.DOC_ID=T2.DOC_ID]
    Project[T1.DOC_ID]
      Select[((T1.STRING = "Boston") AND (T1.LABEL = "B-ORG"))]
        Scan(TOKEN AS T1)
    Project[T2.DOC_ID, T2.STRING]
      Select[(T2.LABEL = "B-PER")]
        Scan(TOKEN AS T2)`},
	} {
		b, err := ra.Bind(w.db, mustCompile(t, tc.sql))
		if err != nil {
			t.Fatal(err)
		}
		if got := "\n" + strings.Join(ra.Render(b.Source), "\n"); got != tc.want {
			t.Errorf("bound tree of %s:%s\nwant:%s", tc.sql, got, tc.want)
		}
	}
}
