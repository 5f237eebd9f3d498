package world

import (
	"math/rand"
	"testing"

	"factordb/internal/ivm"
	"factordb/internal/ra"
	"factordb/internal/relstore"
)

// itemDB builds ITEM(K, V) over so small a domain that most tuples occur
// in several distinct rows — the case where netting by row identity and
// netting by tuple value could come apart.
func itemDB(t *testing.T, rng *rand.Rand, n int) (*relstore.DB, *relstore.Relation) {
	t.Helper()
	db := relstore.NewDB()
	rel := db.MustCreate(relstore.MustSchema("ITEM",
		relstore.Column{Name: "K", Type: relstore.TInt},
		relstore.Column{Name: "V", Type: relstore.TString},
	))
	for i := 0; i < n; i++ {
		if _, err := rel.Insert(randomItem(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.DeclareHidden("ITEM", 1); err != nil {
		t.Fatal(err)
	}
	return db, rel
}

var itemValues = []string{"a", "b", "c"}

func randomItem(rng *rand.Rand) relstore.Tuple {
	return relstore.Tuple{relstore.Int(int64(rng.Intn(3))), relstore.String(itemValues[rng.Intn(len(itemValues))])}
}

// contents returns the relation as a bag.
func contents(rel *relstore.Relation) *ra.Bag {
	b := ra.NewBag(nil)
	rel.Scan(func(_ relstore.RowID, t relstore.Tuple) bool {
		b.Add(t, 1)
		return true
	})
	return b
}

// liveRows returns the relation's RowIDs in ascending order.
func liveRows(rel *relstore.Relation) []relstore.RowID {
	var ids []relstore.RowID
	rel.Scan(func(id relstore.RowID, _ relstore.Tuple) bool {
		ids = append(ids, id)
		return true
	})
	return ids
}

// itemViews are plans whose maintained answers are checked against a
// fresh evaluation after every drain: a grouped count (sensitive to
// multiplicities) and a self-join (sensitive to the order in which −old
// and +new rows of one batch reach the two join sides).
func itemViews() []ra.Plan {
	return []ra.Plan{
		ra.NewGroupAgg(ra.NewScan("ITEM", "I"), []ra.ColRef{ra.C("I", "V")}, ra.Agg{Fn: ra.FnCount, As: "N"}),
		ra.NewProject(
			ra.NewJoin(ra.NewScan("ITEM", "A"), ra.NewScan("ITEM", "B"),
				[]ra.EquiCond{{Left: ra.C("A", "K"), Right: ra.C("B", "K")}}, nil),
			ra.C("A", "V"), ra.C("B", "V")),
	}
}

// TestDrainIsNetWorldChange is the Δ oracle: over random interleavings of
// sampler flips and DML, every drained delta, folded into a bag, equals
// world-after − world-before, and views maintained from it equal a fresh
// evaluation.
func TestDrainIsNetWorldChange(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db, rel := itemDB(t, rng, 12)
		log := NewChangeLog(db)
		field, err := log.Field("ITEM", 1)
		if err != nil {
			t.Fatal(err)
		}
		var bounds []*ra.Bound
		var views []*ivm.View
		for _, p := range itemViews() {
			b, err := ra.Bind(db, p)
			if err != nil {
				t.Fatal(err)
			}
			v, err := ivm.NewView(b)
			if err != nil {
				t.Fatal(err)
			}
			bounds, views = append(bounds, b), append(views, v)
		}
		for batch := 0; batch < 40; batch++ {
			before := contents(rel)
			for op, nops := 0, rng.Intn(12); op < nops; op++ {
				ids := liveRows(rel)
				kind := rng.Intn(4)
				if len(ids) == 0 {
					kind = 1
				}
				switch kind {
				case 0: // sampler flip of the hidden column
					err = field.Set(ids[rng.Intn(len(ids))], relstore.String(itemValues[rng.Intn(len(itemValues))]))
				case 1:
					_, err = log.Insert("ITEM", randomItem(rng))
				case 2:
					it := randomItem(rng)
					err = log.UpdateFields(FieldRef{Rel: "ITEM", Row: ids[rng.Intn(len(ids))]}, []int{0, 1}, []relstore.Value{it[0], it[1]})
				case 3:
					err = log.DeleteRow("ITEM", ids[rng.Intn(len(ids))])
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			want := contents(rel)
			want.AddBag(before, -1)
			d := log.Drain()
			got := ra.NewBag(nil)
			for _, r := range d["ITEM"] {
				got.Add(r.Tuple, r.N)
			}
			if !got.Equal(want) {
				t.Fatalf("seed %d batch %d: drained delta folds to %d distinct rows, world changed by %d", seed, batch, got.Len(), want.Len())
			}
			if log.Pending() {
				t.Fatalf("seed %d batch %d: pending after Drain", seed, batch)
			}
			for i, v := range views {
				v.Apply(d)
				full, err := ra.Eval(bounds[i])
				if err != nil {
					t.Fatal(err)
				}
				if !answerBag(v.Result()).Equal(full) {
					t.Fatalf("seed %d batch %d: view %d diverged from a fresh evaluation", seed, batch, i)
				}
			}
		}
	}
}

// TestRoundTripsDrainEmpty: a row flipped A→B→A, a row updated and
// updated back, and a row inserted and deleted within one batch leave
// nothing to drain — also when another row holds the very same tuple.
func TestRoundTripsDrainEmpty(t *testing.T) {
	db := relstore.NewDB()
	rel := db.MustCreate(relstore.MustSchema("ITEM",
		relstore.Column{Name: "K", Type: relstore.TInt},
		relstore.Column{Name: "V", Type: relstore.TString},
	))
	dup := relstore.Tuple{relstore.Int(1), relstore.String("a")}
	r0, _ := rel.Insert(dup)
	r1, _ := rel.Insert(dup)
	if err := db.DeclareHidden("ITEM", 1); err != nil {
		t.Fatal(err)
	}
	log := NewChangeLog(db)

	for _, v := range []string{"b", "c", "a"} {
		if err := log.SetField(FieldRef{Rel: "ITEM", Row: r0, Col: 1}, relstore.String(v)); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []int64{2, 1} {
		if err := log.UpdateFields(FieldRef{Rel: "ITEM", Row: r1}, []int{0}, []relstore.Value{relstore.Int(k)}); err != nil {
			t.Fatal(err)
		}
	}
	id, err := log.Insert("ITEM", dup)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.SetField(FieldRef{Rel: "ITEM", Row: id, Col: 1}, relstore.String("b")); err != nil {
		t.Fatal(err)
	}
	if err := log.DeleteRow("ITEM", id); err != nil {
		t.Fatal(err)
	}
	if log.Pending() {
		t.Error("round trips left a pending delta")
	}
	if del, add := log.DeltaTables("ITEM"); del != nil || add != nil {
		t.Errorf("DeltaTables = -%v +%v, want nothing", del, add)
	}
	if d := log.Drain(); !d.Empty() {
		t.Errorf("drained %d rows, want none", d["ITEM"].Len())
	}
	if log.Updates() != 8 {
		t.Errorf("Updates = %d, want 8 (every effective write counts)", log.Updates())
	}
}

// TestNettingIsByKeyNotByEqual: Int(1) and Float(1) compare Equal but key
// differently, so a FLOAT field going 1 → 2 → 1.0 is a real change to
// every keyed consumer and must not be netted away.
func TestNettingIsByKeyNotByEqual(t *testing.T) {
	db := relstore.NewDB()
	rel := db.MustCreate(relstore.MustSchema("M", relstore.Column{Name: "X", Type: relstore.TFloat}))
	id, _ := rel.Insert(relstore.Tuple{relstore.Int(1)})
	if err := db.DeclareHidden("M", 0); err != nil {
		t.Fatal(err)
	}
	log := NewChangeLog(db)
	for _, v := range []relstore.Value{relstore.Int(2), relstore.Float(1)} {
		if err := log.SetField(FieldRef{Rel: "M", Row: id, Col: 0}, v); err != nil {
			t.Fatal(err)
		}
	}
	if d := log.Drain(); d["M"].Len() != 2 {
		t.Errorf("drained %d rows, want −Int(1) +Float(1)", d["M"].Len())
	}
}

// TestDrainedDeltaLifetime pins the lifetime rule: a drained delta stays
// intact while the walk goes on and is refilled by the next Drain.
func TestDrainedDeltaLifetime(t *testing.T) {
	log, id := setup(t)
	ref := FieldRef{Rel: "TOKEN", Row: id, Col: 2}
	log.SetField(ref, relstore.String("B-ORG"))
	d := log.Drain()
	log.SetField(ref, relstore.String("B-PER"))
	if rows := d["TOKEN"]; rows.Len() != 2 || rows[0].Tuple[2].AsString() != "O" || rows[1].Tuple[2].AsString() != "B-ORG" {
		t.Fatalf("writes after Drain disturbed the drained delta: %v", rows)
	}
	d2 := log.Drain()
	if rows := d2["TOKEN"]; rows.Len() != 2 || rows[0].Tuple[2].AsString() != "B-ORG" || rows[0].N != -1 || rows[1].Tuple[2].AsString() != "B-PER" {
		t.Fatalf("second delta = %v", rows)
	}
}

// answerBag copies a view answer's present rows into a bag.
func answerBag(a *ivm.Answer) *ra.Bag {
	out := ra.NewBag(nil)
	for s := range int32(a.Slots()) {
		out.Add(a.Tuple(s), a.Count(s))
	}
	return out
}
