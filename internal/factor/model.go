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
// read-only.
type Model struct {
	*world.Prototype
	g   *Graph
	rel string
	col int
}

// NewModel binds g's variables to rows 0..len(g.Vars)-1 of relation rel
// in proto and declares column col hidden there. Every bound row must
// hold a value of its variable's domain in column col. Every domain value
// is interned in the column first, so no flip interns one and a chain's
// code table covers every code a bound row can hold.
func NewModel(g *Graph, proto *relstore.DB, rel string, col int) (*Model, error) {
	r, err := proto.Relation(rel)
	if err != nil {
		return nil, err
	}
	for _, v := range g.Vars {
		if err := r.Intern(col, v.Dom.Values...); err != nil {
			return nil, err
		}
	}
	m := &Model{g: g, rel: rel, col: col}
	m.Prototype = world.NewPrototype(proto, fmt.Sprintf("factor graph: %d variables on %s", len(g.Vars), rel), m.bind)
	if err := proto.DeclareHidden(rel, col); err != nil {
		return nil, err
	}
	if _, _, err := m.NewChainWorld(0); err != nil {
		return nil, err
	}
	return m, nil
}

// bind makes a Proposer over log's world, starting from the values its
// bound rows hold: each must be one of its variable's domain.
func (m *Model) bind(log *world.ChangeLog) (mcmc.Proposer, error) {
	field, err := log.Field(m.rel, m.col)
	if err != nil {
		return nil, err
	}
	r, _ := log.DB().Relation(m.rel)   // Field found it
	_, strs, _ := r.StringCodes(m.col) // a STRING column (NewModel)
	if n := relstore.RowID(len(m.g.Vars)); n > r.NextID() {
		return nil, fmt.Errorf("factor: %d variables, but %q has issued %d rows", n, m.rel, r.NextID())
	}
	p := &Proposer{g: m.g, rel: r, col: m.col, field: field,
		index: make([][]int, len(m.g.Vars)), a: make([]int, len(m.g.Vars))}
	for i, v := range m.g.Vars {
		p.index[i] = make([]int, len(strs))
		for c, s := range strs {
			p.index[i][c] = v.Dom.Index(s)
		}
		if code := r.CodeAt(relstore.RowID(i), m.col); p.index[i][code] < 0 {
			return nil, fmt.Errorf("factor: row %d of %q holds %q, not a value of variable %q", i, m.rel, strs[code], v.Name)
		}
	}
	return p, nil
}

// ExactAnswer returns the answer marginals Pr[t ∈ Q(W)] of plan p
// (Equation 4 of the paper), keyed by tuple key: each assignment of
// positive probability is written into a copy of the prototype world, p
// is evaluated there with ra.Eval, and every tuple in the answer gains the
// assignment's probability.
func (m *Model) ExactAnswer(p ra.Plan) (map[string]float64, error) {
	db := m.WorldDB().Clone()
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
// so LogQRatio is 0. Its chain's assignment is its world: variable i's
// value is read on every proposal from the code row i holds, through a
// code-to-value table, and an accepted flip is written through the change
// log. A deleted row refuses the write, so its value freezes at the
// tombstone, as ie.Tagger's labels do.
type Proposer struct {
	g     *Graph
	rel   *relstore.Relation
	col   int
	field world.Field
	index [][]int // by variable: code -> index in its domain, -1 for none
	a     []int   // the assignment read for the pending proposal

	// The pending move: variable v takes value newVal.
	v, newVal int
}

// Propose implements mcmc.Proposer.
func (p *Proposer) Propose(rng *rand.Rand) mcmc.Proposal {
	p.v = rng.Intn(len(p.g.Vars))
	p.newVal = rng.Intn(p.g.Vars[p.v].Dom.Size())
	for i := range p.a {
		p.a[i] = p.index[i][p.rel.CodeAt(relstore.RowID(i), p.col)]
	}
	return mcmc.Proposal{LogScoreDelta: p.g.ScoreDelta(p.a, p.v, p.newVal)}
}

// Accept implements mcmc.Proposer.
func (p *Proposer) Accept() {
	val := relstore.String(p.g.Vars[p.v].Dom.Values[p.newVal])
	if err := p.field.Set(relstore.RowID(p.v), val); err != nil && !errors.Is(err, relstore.ErrNotFound) {
		panic(fmt.Sprintf("factor: write-through failed: %v", err))
	}
}
