package ra

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"factordb/internal/relstore"
)

// ---- materialized reference evaluator ----
//
// matEval is the pre-streaming evaluator, kept verbatim as the oracle the
// streaming executor is checked against: every operator materializes its
// full input bags before producing output. It is deliberately naive — its
// only job is to define the semantics.

func matEval(b *Bound) (*Bag, error) {
	switch b.Kind {
	case KScan:
		out := NewBag(b.Schema)
		b.Rel.Scan(func(_ relstore.RowID, t relstore.Tuple) bool {
			out.Add(t.Clone(), 1)
			return true
		})
		if b.Pred != nil { // fused scan filter (pushed trees only)
			f := NewBag(b.Schema)
			out.Each(func(k string, r *BagRow) bool {
				if b.Pred.Eval(r.Tuple).AsBool() {
					f.AddKeyed(k, r.Tuple, r.N)
				}
				return true
			})
			return f, nil
		}
		return out, nil
	case KSelect:
		child, err := matEval(b.Children[0])
		if err != nil {
			return nil, err
		}
		out := NewBag(b.Schema)
		child.Each(func(k string, r *BagRow) bool {
			if b.Pred.Eval(r.Tuple).AsBool() {
				out.AddKeyed(k, r.Tuple, r.N)
			}
			return true
		})
		return out, nil
	case KProject:
		child, err := matEval(b.Children[0])
		if err != nil {
			return nil, err
		}
		out := NewBag(b.Schema)
		child.Each(func(_ string, r *BagRow) bool {
			out.Add(pick(r.Tuple, b.ProjIdx), r.N)
			return true
		})
		return out, nil
	case KJoin:
		return matJoin(b)
	case KGroupAgg:
		return matGroupAgg(b)
	case KDistinct:
		child, err := matEval(b.Children[0])
		if err != nil {
			return nil, err
		}
		out := NewBag(b.Schema)
		child.Each(func(k string, r *BagRow) bool {
			if r.N > 0 {
				out.AddKeyed(k, r.Tuple, 1)
			}
			return true
		})
		return out, nil
	case KOrderLimit:
		return matOrderLimit(b)
	}
	return nil, fmt.Errorf("matEval: unknown bound kind %d", b.Kind)
}

// pick is the reference evaluator's projection: t's fields at idx, as a
// fresh tuple.
func pick(t relstore.Tuple, idx []int) relstore.Tuple {
	out := make(relstore.Tuple, len(idx))
	for i, j := range idx {
		out[i] = t[j]
	}
	return out
}

func matEval2(b *Bound) (*Bag, *Bag, error) {
	l, err := matEval(b.Children[0])
	if err != nil {
		return nil, nil, err
	}
	r, err := matEval(b.Children[1])
	if err != nil {
		return nil, nil, err
	}
	return l, r, nil
}

func matJoin(b *Bound) (*Bag, error) {
	left, right, err := matEval2(b)
	if err != nil {
		return nil, err
	}
	out := NewBag(b.Schema)
	emit := func(l, r *BagRow) {
		row := slices.Concat(l.Tuple, r.Tuple)
		if b.Filter != nil && !b.Filter.Eval(row).AsBool() {
			return
		}
		out.Add(row, l.N*r.N)
	}
	table := make(map[string][]*BagRow)
	right.Each(func(_ string, r *BagRow) bool {
		k := string(AppendKeyOf(nil, r.Tuple, b.RightKey))
		table[k] = append(table[k], r)
		return true
	})
	left.Each(func(_ string, l *BagRow) bool {
		k := string(AppendKeyOf(nil, l.Tuple, b.LeftKey))
		for _, r := range table[k] {
			emit(l, r)
		}
		return true
	})
	return out, nil
}

func matGroupAgg(b *Bound) (*Bag, error) {
	child, err := matEval(b.Children[0])
	if err != nil {
		return nil, err
	}
	type group struct {
		key    relstore.Tuple
		accums []aggAccum
	}
	groups := make(map[string]*group)
	child.Each(func(_ string, r *BagRow) bool {
		gk := string(AppendKeyOf(nil, r.Tuple, b.GroupIdx))
		g, ok := groups[gk]
		if !ok {
			g = &group{key: pick(r.Tuple, b.GroupIdx), accums: make([]aggAccum, len(b.Aggs))}
			groups[gk] = g
		}
		for i := range b.Aggs {
			accumulate(&g.accums[i], &b.Aggs[i], r.Tuple, r.N)
		}
		return true
	})
	if len(b.GroupIdx) == 0 && len(groups) == 0 && countsOnly(b.Aggs) {
		groups[""] = &group{key: relstore.Tuple{}, accums: make([]aggAccum, len(b.Aggs))}
	}
	out := NewBag(b.Schema)
	for _, g := range groups {
		row := make(relstore.Tuple, 0, len(g.key)+len(b.Aggs))
		row = append(row, g.key...)
		ok := true
		for i := range b.Aggs {
			v, valid := finishAgg(&g.accums[i], &b.Aggs[i])
			if !valid {
				ok = false
				break
			}
			row = append(row, v)
		}
		if ok {
			out.Add(row, 1)
		}
	}
	return out, nil
}

func matOrderLimit(b *Bound) (*Bag, error) {
	child, err := matEval(b.Children[0])
	if err != nil {
		return nil, err
	}
	type keyed struct {
		key string
		row *BagRow
	}
	rows := make([]keyed, 0, child.Len())
	child.Each(func(k string, r *BagRow) bool {
		rows = append(rows, keyed{key: k, row: r})
		return true
	})
	sort.Slice(rows, func(i, j int) bool {
		if c := CompareTuples(rows[i].row.Tuple, rows[j].row.Tuple, b.SortIdx, b.SortDesc); c != 0 {
			return c < 0
		}
		return rows[i].key < rows[j].key
	})
	out := NewBag(b.Schema)
	remaining := b.Limit
	for _, kr := range rows {
		if remaining <= 0 {
			break
		}
		n := kr.row.N
		if n > remaining {
			n = remaining
		}
		out.AddKeyed(kr.key, kr.row.Tuple, n)
		remaining -= n
	}
	return out, nil
}

// ---- randomized operator sweep ----

// sweepWorld populates R(A,B,C), S(A,D) and the always-empty E(A,D) with
// tiny value domains, so projections collapse many rows into duplicate-
// heavy bags and joins fan out. rows==0 produces an all-empty world.
func sweepWorld(rng *rand.Rand, rows int) *relstore.DB {
	db := relstore.NewDB()
	r := db.MustCreate(relstore.MustSchema("R",
		relstore.Column{Name: "A", Type: relstore.TInt},
		relstore.Column{Name: "B", Type: relstore.TString},
		relstore.Column{Name: "C", Type: relstore.TFloat},
	))
	s := db.MustCreate(relstore.MustSchema("S",
		relstore.Column{Name: "A", Type: relstore.TInt},
		relstore.Column{Name: "D", Type: relstore.TString},
	))
	db.MustCreate(relstore.MustSchema("E",
		relstore.Column{Name: "A", Type: relstore.TInt},
		relstore.Column{Name: "D", Type: relstore.TString},
	))
	strs := []string{"x", "y", "z"}
	for i := 0; i < rows; i++ {
		r.Insert(relstore.Tuple{
			relstore.Int(rng.Int63n(4)),
			relstore.String(strs[rng.Intn(len(strs))]),
			relstore.Float(float64(rng.Int63n(3))),
		})
	}
	for i := 0; i < rows/2; i++ {
		s.Insert(relstore.Tuple{
			relstore.Int(rng.Int63n(4)),
			relstore.String(strs[rng.Intn(len(strs))]),
		})
	}
	return db
}

// sweepPlans covers every operator and the placements of selections
// among them: on scans, over projections, joins (one-sided and residual
// conjuncts), aggregation/distinct/order-limit, and empty inputs.
func sweepPlans() map[string]Plan {
	rA, rB, rC := C("R", "A"), C("R", "B"), C("R", "C")
	sA, sD := C("S", "A"), C("S", "D")
	scanR, scanS, scanE := NewScan("R", ""), NewScan("S", ""), NewScan("E", "")
	join := func(l, r Plan, filter Expr) Plan {
		return NewJoin(l, r, []EquiCond{{Left: rA, Right: sA}}, filter)
	}
	aLt2 := Cmp(OpLt, Col(rA), Const(relstore.Int(2)))
	bIsX := Eq(Col(rB), Const(relstore.String("x")))
	dIsY := Eq(Col(sD), Const(relstore.String("y")))
	cGt0 := Cmp(OpGt, Col(rC), Const(relstore.Float(0)))
	return map[string]Plan{
		"scan":            scanR,
		"select-conjunct": NewSelect(scanR, And(aLt2, bIsX)),
		"select-or":       NewSelect(scanR, Or(aLt2, bIsX)),
		"select-false":    NewSelect(scanR, Eq(Col(rB), Const(relstore.String("missing")))),
		"project-dups":    NewProject(scanR, rB),
		"select-over-project": NewSelect(
			NewProject(scanR, rA, rB), aLt2),
		"join":          join(scanR, scanS, nil),
		"join-filter":   join(scanR, scanS, And(cGt0, dIsY)),
		"join-residual": join(scanR, scanS, Or(bIsX, dIsY)), // not single-side pushable
		"select-over-join": NewSelect(
			join(scanR, scanS, nil), And(aLt2, dIsY, cGt0)),
		"cross": NewJoin(NewProject(scanR, rB), scanS, nil, nil),
		"join-empty": NewJoin(scanR, scanE,
			[]EquiCond{{Left: rA, Right: C("E", "A")}}, nil),
		"group-agg": NewGroupAgg(scanR, []ColRef{rB},
			Agg{Fn: FnCount, As: "N"},
			Agg{Fn: FnSum, Arg: rC, As: "SC"},
			Agg{Fn: FnMin, Arg: rA, As: "MA"},
			Agg{Fn: FnMax, Arg: rC, As: "XC"},
			Agg{Fn: FnAvg, Arg: rC, As: "AC"},
			Agg{Fn: FnCountIf, Pred: aLt2, As: "CI"},
		),
		"global-count-empty-input": NewGroupAgg(
			NewSelect(scanR, Eq(Col(rB), Const(relstore.String("missing")))),
			nil, Agg{Fn: FnCount, As: "N"}),
		"global-min-empty-input": NewGroupAgg(
			NewSelect(scanR, Eq(Col(rB), Const(relstore.String("missing")))),
			nil, Agg{Fn: FnMin, Arg: rA, As: "MA"}),
		"select-over-groupagg": NewSelect(
			NewGroupAgg(scanR, []ColRef{rB}, Agg{Fn: FnCount, As: "N"}),
			Cmp(OpGt, Col(C("", "N")), Const(relstore.Int(1)))),
		"distinct":      NewDistinct(NewProject(scanR, rB)),
		"distinct-join": NewDistinct(NewProject(join(scanR, scanS, nil), rB, sD)),
		"order-limit": NewOrderLimit(scanR,
			[]SortKey{{Col: rC, Desc: true}, {Col: rA}}, 3),
		"order-limit-dups": NewOrderLimit(NewProject(scanR, rB),
			[]SortKey{{Col: rB}}, 4),
		"order-limit-all": NewOrderLimit(scanS, []SortKey{{Col: sD, Desc: true}}, 1000),
		"select-over-order-limit": NewSelect(
			NewOrderLimit(scanR, []SortKey{{Col: rA}}, 5), bIsX),
		"nested-join-select": join(
			NewSelect(scanR, cGt0), NewSelect(scanS, dIsY), nil),
	}
}

// TestStreamingMatchesMaterialized sweeps every operator combination over
// randomized duplicate-heavy small worlds (plus an all-empty world) and
// checks the streaming executor against the materialized reference,
// through Eval and twice per compiled pipeline (iterators must be
// re-runnable).
func TestStreamingMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for world := 0; world < 12; world++ {
		rows := 24
		if world == 0 {
			rows = 0 // every relation empty
		}
		db := sweepWorld(rng, rows)
		for name, p := range sweepPlans() {
			bound, err := Bind(db, p)
			if err != nil {
				t.Fatalf("world %d %s: bind: %v", world, name, err)
			}
			want, err := matEval(bound)
			if err != nil {
				t.Fatalf("world %d %s: matEval: %v", world, name, err)
			}
			got, err := Eval(bound)
			if err != nil {
				t.Fatalf("world %d %s: Eval: %v", world, name, err)
			}
			if !got.Equal(want) {
				t.Errorf("world %d %s: streaming result differs from materialized\n got: %v\nwant: %v",
					world, name, dumpBag(got), dumpBag(want))
			}
			// The compiled pipeline must be re-runnable with identical output.
			it, owned, err := Stream(bound)
			if err != nil {
				t.Fatalf("world %d %s: Stream: %v", world, name, err)
			}
			for run := 0; run < 2; run++ {
				again := NewBag(bound.Schema)
				it(func(tp relstore.Tuple, n int64) bool {
					if owned {
						again.Add(tp, n)
					} else {
						again.Add(tp.Clone(), n)
					}
					return true
				})
				if !again.Equal(want) {
					t.Errorf("world %d %s: stream re-run %d differs", world, name, run)
				}
			}
		}
	}
}

func dumpBag(b *Bag) string {
	s := ""
	for _, r := range b.Rows() {
		s += fmt.Sprintf("%s x%d; ", r.Tuple, r.N)
	}
	return s
}

// TestStreamingEarlyStop checks that a consumer breaking out of the
// stream stops the pipeline without error and leaves the iterator
// reusable.
func TestStreamingEarlyStop(t *testing.T) {
	db := sweepWorld(rand.New(rand.NewSource(3)), 24)
	bound, err := Bind(db, NewJoin(NewScan("S", ""), NewScan("S", "s2"),
		[]EquiCond{{Left: C("S", "A"), Right: C("s2", "A")}}, nil))
	if err != nil {
		t.Fatal(err)
	}
	want, err := matEval(bound)
	if err != nil {
		t.Fatal(err)
	}
	it, _, err := Stream(bound)
	if err != nil {
		t.Fatal(err)
	}
	var first int
	it(func(relstore.Tuple, int64) bool {
		first++
		return first < 3
	})
	if first != 3 {
		t.Fatalf("early stop saw %d yields, want 3", first)
	}
	var total int64
	it(func(_ relstore.Tuple, n int64) bool {
		total += n
		return true
	})
	if total != want.Size() {
		t.Fatalf("re-run after early stop yielded %d rows, want %d", total, want.Size())
	}
}
