package world_test

import (
	"bytes"
	"math/rand"
	"testing"

	"factordb/internal/exp"
	"factordb/internal/factor"
	"factordb/internal/mcmc"
	"factordb/internal/relstore"
	"factordb/internal/world"
)

// contractModel is one model under the contract test.
type contractModel struct {
	name string
	m    *world.Prototype
}

// contractModels builds one of each model: NER over a small corpus, coref
// and the enumerable factor graph.
func contractModels(t *testing.T) []contractModel {
	t.Helper()
	ner, err := exp.BuildNER(exp.Config{NumTokens: 400, Seed: 3, UseSkip: true, TrainSteps: 2000})
	if err != nil {
		t.Fatal(err)
	}
	cr, err := exp.BuildCorefOver(exp.CorefConfig{NumEntities: 4, MentionsPerEntity: 3, Seed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return []contractModel{
		{"ner", ner.Prototype},
		{"coref", cr.Prototype},
		{"factor", factorModel(t).Prototype},
	}
}

// factorModel serves a six-variable chain graph over labels {O, B-PER,
// B-ORG} on a V(ID, LABEL) relation, every row starting at O.
func factorModel(t *testing.T) *factor.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	dom := factor.NewDomain("label", "O", "B-PER", "B-ORG")
	g := factor.NewGraph()
	db := relstore.NewDB()
	rel := db.MustCreate(relstore.MustSchema("V",
		relstore.Column{Name: "ID", Type: relstore.TInt},
		relstore.Column{Name: "LABEL", Type: relstore.TString},
	))
	for i := range 6 {
		v := g.AddVar("y", dom)
		bias := [3]float64{0, rng.NormFloat64(), rng.NormFloat64()}
		g.MustAddFactor("bias", func(vals []int) float64 { return bias[vals[0]] }, v)
		if i > 0 {
			w := rng.NormFloat64()
			g.MustAddFactor("pair", func(vals []int) float64 {
				if vals[0] == vals[1] {
					return w
				}
				return 0
			}, g.Vars[i-1], v)
		}
		if _, err := rel.Insert(relstore.Tuple{relstore.Int(int64(i)), relstore.String("O")}); err != nil {
			t.Fatal(err)
		}
	}
	m, err := factor.NewModel(g, db, "V", 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// dump returns db's snapshot bytes.
func dump(t *testing.T, db *relstore.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// walk binds a chain to m and walks it steps proposals at seed.
func walk(t *testing.T, m *world.Prototype, seed int64, steps int) (*world.ChangeLog, *mcmc.Sampler) {
	t.Helper()
	log, p, err := m.NewChainWorld(0)
	if err != nil {
		t.Fatal(err)
	}
	s := mcmc.NewSampler(p, seed)
	s.Run(steps)
	return log, s
}

// TestModelContract holds every model to the one contract of
// world.Prototype: walking a clone writes that clone only, and only its
// one declared hidden column; and a chain's walk is a function of its
// seed.
func TestModelContract(t *testing.T) {
	const steps = 3000
	for _, tc := range contractModels(t) {
		m := tc.m
		t.Run(tc.name, func(t *testing.T) {
			proto := dump(t, m.WorldDB())
			other, _, err := m.NewChainWorld(1)
			if err != nil {
				t.Fatal(err)
			}
			otherBefore := dump(t, other.DB())

			log, s := walk(t, m, 11, steps)
			if s.Accepted() == 0 {
				t.Fatal("no proposal accepted")
			}
			if !bytes.Equal(dump(t, m.WorldDB()), proto) {
				t.Error("walking a clone changed the prototype")
			}
			if !bytes.Equal(dump(t, other.DB()), otherBefore) {
				t.Error("walking a clone changed a second clone")
			}

			hidden, moved := 0, 0
			for _, name := range m.WorldDB().Names() {
				before, _ := m.WorldDB().Relation(name)
				after, err := log.DB().Relation(name)
				if err != nil {
					t.Fatal(err)
				}
				sch := before.Schema()
				for c := range sch.Arity() {
					if sch.Hidden(c) {
						hidden++
					}
				}
				before.Scan(func(id relstore.RowID, was relstore.Tuple) bool {
					now, ok := after.Get(id)
					if !ok {
						t.Errorf("%s row %d is gone from the walked clone", name, id)
						return true
					}
					for c := range was {
						if now[c].Identical(was[c]) {
							continue
						}
						if !sch.Hidden(c) {
							t.Errorf("%s row %d: the walk changed %s, which is not hidden", name, id, sch.Cols[c].Name)
						}
						moved++
					}
					return true
				})
			}
			if hidden != 1 {
				t.Errorf("the world declares %d hidden columns, want 1", hidden)
			}
			if moved == 0 {
				t.Error("the walk changed no hidden value")
			}

			a, sa := walk(t, m, 23, steps)
			b, sb := walk(t, m, 23, steps)
			if sa.Accepted() != sb.Accepted() || !bytes.Equal(dump(t, a.DB()), dump(t, b.DB())) {
				t.Errorf("two binds at one seed walked apart: %d and %d accepted", sa.Accepted(), sb.Accepted())
			}
		})
	}
}
