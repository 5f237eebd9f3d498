package ra_test

import (
	"slices"
	"testing"

	"factordb/internal/core"
	"factordb/internal/ivm"
	"factordb/internal/ra"
	"factordb/internal/relstore"
	"factordb/internal/world"
)

// sound reports the first row of the bag whose tuple no longer encodes to
// the key it is filed under — what a tuple kept from a scratch buffer
// turns into once the buffer moves on — or "".
func sound(b *ra.Bag) (bad string) {
	b.Each(func(key string, r *ra.BagRow) bool {
		if r.Tuple.Key() != key {
			bad = r.Tuple.String()
		}
		return bad == ""
	})
	return bad
}

// bagStream streams a bag's rows.
func bagStream(b *ra.Bag) ra.Iterator {
	return func(yield func(relstore.Tuple, int64) bool) {
		b.Each(func(_ string, r *ra.BagRow) bool { return yield(r.Tuple, r.N) })
	}
}

// TestNoLayerKeepsAScratchTuple is the ownership canary of the base
// layers. The store scans through one scratch tuple that it zeroes when
// the scan ends, and a view's scan leaf gathers each flip record a change
// log drains into one scratch pair it refills at the next gather; so
// whoever keeps such a tuple without cloning it — a join's build side, distinct state,
// a top-k buffer, a MIN/MAX value set, a view's result, an estimator —
// ends up holding zeros, and its answers drift from the truth. The
// paper's queries and the hand-built plans of prune_test.go run through
// ra.Eval, ra.Stream, a view and two estimators over 25 rounds of label
// flips and DML applied through a world.ChangeLog, and every answer is
// held to ra.Eval over a world built afresh from a plain copy of the
// rows.
func TestNoLayerKeepsAScratchTuple(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		w := newPruneWorld(seed, 40)
		rows := make(map[relstore.RowID]relstore.Tuple) // what TOKEN must hold
		w.tok.Scan(func(id relstore.RowID, tu relstore.Tuple) bool {
			rows[id] = tu.Clone()
			return true
		})
		var docs []relstore.Tuple
		w.doc.Scan(func(_ relstore.RowID, tu relstore.Tuple) bool {
			docs = append(docs, tu.Clone())
			return true
		})
		// fresh builds a world no operator under test has ever seen.
		fresh := func() *relstore.DB {
			db := relstore.NewDB()
			tok, doc := db.MustCreate(w.tok.Schema()), db.MustCreate(w.doc.Schema())
			ids := make([]relstore.RowID, 0, len(rows))
			for id := range rows {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			for _, id := range ids {
				if _, err := tok.Insert(rows[id]); err != nil {
					t.Fatal(err)
				}
			}
			for _, d := range docs {
				if _, err := doc.Insert(d); err != nil {
					t.Fatal(err)
				}
			}
			return db
		}

		if err := w.db.DeclareHidden("TOKEN", 3); err != nil {
			t.Fatal(err)
		}
		log := world.NewChangeLog(w.db)
		label, err := log.Field("TOKEN", 3)
		if err != nil {
			t.Fatal(err)
		}
		type subject struct {
			name                        string
			plan                        ra.Plan
			bound                       *ra.Bound
			view                        *ivm.View
			stream                      ra.Iterator
			viaView, viaStream, truthly *core.Estimator
		}
		plans, _ := prunePlans(t)
		var subjects []*subject
		for name, p := range plans {
			s := &subject{name: name, plan: p,
				viaView: core.NewEstimator(), viaStream: core.NewEstimator(), truthly: core.NewEstimator()}
			if s.bound, err = ra.Bind(w.db, p); err != nil {
				t.Fatalf("%s: Bind: %v", name, err)
			}
			if s.view, err = ivm.NewView(s.bound); err != nil {
				t.Fatalf("%s: NewView: %v", name, err)
			}
			if s.stream, _, err = ra.Stream(s.bound); err != nil {
				t.Fatalf("%s: Stream: %v", name, err)
			}
			subjects = append(subjects, s)
		}
		check := func(round int) {
			truth := fresh()
			for _, s := range subjects {
				tb, err := ra.Bind(truth, s.plan)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ra.Eval(tb)
				if err != nil {
					t.Fatal(err)
				}
				eval, err := ra.Eval(s.bound)
				if err != nil {
					t.Fatal(err)
				}
				for what, bag := range map[string]*ra.Bag{
					"Eval": eval, "Stream": streamBag(t, s.bound),
					"NewView": answerBag(t, s.view.Result()),
				} {
					if bad := sound(bag); bad != "" || !bag.Equal(want) {
						t.Fatalf("seed %d round %d %s: %s differs from the answer over a fresh world (row gone bad: %q)\n got: %s\nwant: %s",
							seed, round, s.name, what, bad, dumpBag(bag), dumpBag(want))
					}
				}
				s.viaView.AddSample(s.view.Result())
				s.viaStream.AddSampleStream(s.stream)
				s.truthly.AddSampleStream(bagStream(want))
			}
		}
		check(0)
		for round := 1; round <= 25; round++ {
			for i := 0; i < 6; i++ {
				id := w.ids[w.rng.Intn(len(w.ids))]
				switch k := w.rng.Intn(8); {
				case k == 0:
					row := w.randomToken()
					id, err = log.Insert("TOKEN", row)
					w.ids = append(w.ids, id)
					rows[id] = row
				case k == 1 && len(w.ids) > 8:
					err = log.DeleteRow("TOKEN", id)
					w.ids = slices.DeleteFunc(w.ids, func(x relstore.RowID) bool { return x == id })
					delete(rows, id)
				case k == 2:
					row := w.randomToken()
					err = log.UpdateFields(world.FieldRef{Rel: "TOKEN", Row: id}, []int{1, 2}, []relstore.Value{row[1], row[2]})
					rows[id] = relstore.Tuple{rows[id][0], row[1], row[2], rows[id][3], rows[id][4]}
				default: // the sampler's write: one label
					l := relstore.String(pruneLabels[w.rng.Intn(len(pruneLabels))])
					err = label.Set(id, l)
					rows[id] = relstore.Tuple{rows[id][0], rows[id][1], rows[id][2], l, rows[id][4]}
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			d := log.Drain()
			for _, s := range subjects {
				s.view.Apply(d)
			}
			check(round)
		}
		for _, s := range subjects {
			want := s.truthly.Results()
			for how, est := range map[string]*core.Estimator{"view": s.viaView, "stream": s.viaStream} {
				got := est.Results()
				if len(got) != len(want) {
					t.Fatalf("seed %d %s: estimator fed from the %s holds %d tuples, want %d", seed, s.name, how, len(got), len(want))
				}
				for i := range got {
					if !got[i].Tuple.Identical(want[i].Tuple) || got[i].P != want[i].P {
						t.Fatalf("seed %d %s: estimator fed from the %s: result %d is %v p=%v, want %v p=%v",
							seed, s.name, how, i, got[i].Tuple, got[i].P, want[i].Tuple, want[i].P)
					}
				}
			}
		}
	}
}
