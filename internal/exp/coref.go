package exp

import (
	"fmt"

	"factordb/internal/coref"
	"factordb/internal/mcmc"
	"factordb/internal/relstore"
	"factordb/internal/world"
)

// PairQuery is the entity-resolution analogue of the paper's evaluation
// queries: for every pair of mentions, the probability that they refer to
// the same entity — the self-join on the hidden CLUSTER field of
// Figure 1's bottom row.
const PairQuery = `SELECT M1.MENTION_ID, M2.MENTION_ID FROM MENTION M1, MENTION M2
 WHERE M1.CLUSTER = M2.CLUSTER AND M1.MENTION_ID < M2.MENTION_ID`

// CorefConfig parameterizes the entity-resolution workload.
type CorefConfig struct {
	NumEntities       int
	MentionsPerEntity int
	Seed              int64
}

// CorefSystem is the entity-resolution probabilistic database: a fixed
// set of generated mentions, the pairwise-cohesion model, and a prototype
// world (MENTION with singleton clusters) cloned into independent chains
// — the same prototype-world contract as NERSystem, so the serving
// engine and the public facade treat the two workloads identically.
type CorefSystem struct {
	Mentions []coref.Mention
	Model    *coref.Model
	cfg      CorefConfig

	protoDB *relstore.DB
}

// BuildCoref generates the mention set and loads it once into the
// prototype world, every mention in its own cluster.
func BuildCoref(cfg CorefConfig) (*CorefSystem, error) { return BuildCorefOver(cfg, nil) }

// BuildCorefOver is BuildCoref serving db, when it is not nil, instead of
// loading the mentions: a world this config's mentions were loaded into,
// such as one recovered from a data directory. Mention i is MENTION row i.
func BuildCorefOver(cfg CorefConfig, db *relstore.DB) (*CorefSystem, error) {
	if cfg.NumEntities <= 0 {
		cfg.NumEntities = 6
	}
	if cfg.MentionsPerEntity <= 0 {
		cfg.MentionsPerEntity = 4
	}
	mentions, err := coref.Generate(coref.GenConfig{
		NumEntities:       cfg.NumEntities,
		MentionsPerEntity: cfg.MentionsPerEntity,
		Seed:              cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	if db == nil {
		db = relstore.NewDB()
		if err := coref.LoadMentions(db, mentions); err != nil {
			return nil, err
		}
	}
	return &CorefSystem{Mentions: mentions, Model: coref.DefaultModel(), cfg: cfg, protoDB: db}, nil
}

// NewChainWorld clones the prototype world and binds a fresh singleton
// clustering and move proposer to it. The clones share nothing mutable.
func (s *CorefSystem) NewChainWorld(_ int) (*world.ChangeLog, mcmc.Proposer, error) {
	log := world.NewChangeLog(s.protoDB.Clone())
	proposer := coref.NewMoveProposer(coref.NewSingletonState(s.Mentions), s.Model)
	if err := proposer.BindDB(log); err != nil {
		return nil, nil, err
	}
	return log, proposer, nil
}

// WorldDB exposes the prototype world — the evidence a durable store
// snapshots and local-mode writes mutate.
func (s *CorefSystem) WorldDB() *relstore.DB { return s.protoDB }

// Describe returns a one-line summary of the workload.
func (s *CorefSystem) Describe() string {
	return fmt.Sprintf("coref system: %d mentions of %d entities",
		len(s.Mentions), s.cfg.NumEntities)
}
