package factor

import (
	"errors"
	"fmt"
	"math/rand"

	"factordb/internal/mcmc"
	"factordb/internal/ra"
	"factordb/internal/relstore"
	"factordb/internal/world"
)

// Model serves a graph as a probabilistic database. Column col of
// relation rel in a caller-built prototype world is the hidden field, and
// row i (RowID i) holds variable i's value by name. Each chain clones the
// prototype and walks it with a Proposer of its own; the graph is shared
// read-only. Model satisfies serve.Source.
type Model struct {
	g     *Graph
	proto *relstore.DB
	rel   string
	col   int
}

// NewModel binds g's variables to rows 0..len(g.Vars)-1 of relation rel
// in proto and declares column col hidden there. Every bound row must
// hold a value of its variable's domain in column col.
func NewModel(g *Graph, proto *relstore.DB, rel string, col int) (*Model, error) {
	m := &Model{g: g, proto: proto, rel: rel, col: col}
	if _, err := m.assignment(proto); err != nil {
		return nil, err
	}
	if err := proto.DeclareHidden(rel, col); err != nil {
		return nil, err
	}
	return m, nil
}

// assignment reads the variables' values out of db.
func (m *Model) assignment(db *relstore.DB) ([]int, error) {
	r, err := db.Relation(m.rel)
	if err != nil {
		return nil, err
	}
	if m.col < 0 || m.col >= r.Schema().Arity() || r.Schema().Cols[m.col].Type != relstore.TString {
		return nil, fmt.Errorf("factor: column %d of %q is not a STRING column", m.col, m.rel)
	}
	a := make([]int, len(m.g.Vars))
	for i, v := range m.g.Vars {
		val, ok := r.GetCol(relstore.RowID(i), m.col)
		if !ok {
			return nil, fmt.Errorf("factor: variable %q has no row %d in %q", v.Name, i, m.rel)
		}
		if a[i] = v.Dom.Index(val.AsString()); a[i] < 0 {
			return nil, fmt.Errorf("factor: row %d of %q holds %q, not a value of variable %q", i, m.rel, val.AsString(), v.Name)
		}
	}
	return a, nil
}

// WorldDB returns the prototype world.
func (m *Model) WorldDB() *relstore.DB { return m.proto }

// NewChainWorld clones the prototype world and binds a Proposer to it,
// starting from the assignment the clone holds.
func (m *Model) NewChainWorld(int) (*world.ChangeLog, mcmc.Proposer, error) {
	db := m.proto.Clone()
	a, err := m.assignment(db)
	if err != nil {
		return nil, nil, err
	}
	log := world.NewChangeLog(db)
	field, err := log.Field(m.rel, m.col)
	if err != nil {
		return nil, nil, err
	}
	return log, &Proposer{g: m.g, Assign: a, field: field}, nil
}

// ExactAnswer returns the answer marginals Pr[t ∈ Q(W)] of plan p
// (Equation 4 of the paper), keyed by tuple key: each assignment of
// positive probability is written into a copy of the prototype world, p
// is evaluated there with ra.Eval, and every tuple in the answer gains the
// assignment's probability.
func (m *Model) ExactAnswer(p ra.Plan) (map[string]float64, error) {
	db := m.proto.Clone()
	r, err := db.Relation(m.rel)
	if err != nil {
		return nil, err
	}
	b, err := ra.Bind(db, p)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	var evalErr error
	err = m.g.worlds(func(a []int, pr float64) {
		if evalErr != nil {
			return
		}
		for i, val := range a {
			if evalErr = r.SetCol(relstore.RowID(i), m.col, relstore.String(m.g.Vars[i].Dom.Values[val])); evalErr != nil {
				return
			}
		}
		var bag *ra.Bag
		if bag, evalErr = ra.Eval(b); evalErr != nil {
			return
		}
		bag.Each(func(key string, _ *ra.BagRow) bool {
			out[key] += pr
			return true
		})
	})
	if err == nil {
		err = evalErr
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Proposer is the single-variable random walk over a graph: a variable
// uniformly at random, then a value uniformly from its domain. It mirrors
// the paper's NER proposal distribution (Section 5.1) and is symmetric,
// so LogQRatio is 0. It owns its chain's assignment and writes each
// accepted flip through to the variable's row of the chain's world.
type Proposer struct {
	g      *Graph
	Assign []int
	field  world.Field

	// The pending move: variable v takes value newVal.
	v, newVal int
}

// Propose implements mcmc.Proposer.
func (p *Proposer) Propose(rng *rand.Rand) mcmc.Proposal {
	p.v = rng.Intn(len(p.g.Vars))
	p.newVal = rng.Intn(p.g.Vars[p.v].Dom.Size())
	return mcmc.Proposal{LogScoreDelta: p.g.ScoreDelta(p.Assign, p.v, p.newVal)}
}

// Accept implements mcmc.Proposer.
func (p *Proposer) Accept() {
	p.Assign[p.v] = p.newVal
	val := relstore.String(p.g.Vars[p.v].Dom.Values[p.newVal])
	// A row deleted by DML stops mirroring its variable, as in ie.Tagger.
	if err := p.field.Set(relstore.RowID(p.v), val); err != nil && !errors.Is(err, relstore.ErrNotFound) {
		panic(fmt.Sprintf("factor: write-through failed: %v", err))
	}
}
