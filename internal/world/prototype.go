package world

import (
	"factordb/internal/mcmc"
	"factordb/internal/relstore"
)

// Prototype is the one model contract (the factordb package documentation
// says what a model supplies): a prototype world in which the model has
// declared its hidden column, and a bind that makes a proposer over one
// clone's change log, which keeps its state in that clone. The prototype is
// an engine's one evidence world: every write resolves and lands on it
// before any chain takes it, certain plans read it, and a durable store
// keeps it by reference and snapshots it.
type Prototype struct {
	db   *relstore.DB
	desc string
	bind func(*ChangeLog) (mcmc.Proposer, error)
}

// NewPrototype serves db, described by desc, with bind called once per
// chain on the chain's fresh clone.
func NewPrototype(db *relstore.DB, desc string, bind func(*ChangeLog) (mcmc.Proposer, error)) *Prototype {
	return &Prototype{db: db, desc: desc, bind: bind}
}

// NewChainWorld clones the prototype world and binds a proposer to the
// clone. Clones share nothing mutable; the chain index is unused, since
// every chain starts from the same prototype.
func (p *Prototype) NewChainWorld(int) (*ChangeLog, mcmc.Proposer, error) {
	log := NewChangeLog(p.db.Clone())
	prop, err := p.bind(log)
	if err != nil {
		return nil, nil, err
	}
	return log, prop, nil
}

// WorldDB returns the prototype world.
func (p *Prototype) WorldDB() *relstore.DB { return p.db }

// Describe returns a one-line summary of the model as it was built.
func (p *Prototype) Describe() string { return p.desc }
