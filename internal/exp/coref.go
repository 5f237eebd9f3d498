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

// CorefSystem is the entity-resolution probabilistic database: the
// pairwise-cohesion model and a prototype world (MENTION, whose CLUSTER
// column holds the starting clustering) cloned into independent chains
// — the same prototype-world contract as NERSystem, so the serving
// engine and the public facade treat the two workloads identically.
type CorefSystem struct {
	Model *coref.Model

	desc    string // Describe's line, fixed at build
	protoDB *relstore.DB
}

// BuildCorefOver generates the mention set and loads it once into the
// prototype world, every mention in its own cluster. When db is not nil
// it serves db instead: db, such as a world recovered from a data
// directory, is served as it stands, with MENTION.CLUSTER declared
// hidden, and cfg is not read.
func BuildCorefOver(cfg CorefConfig, db *relstore.DB) (*CorefSystem, error) {
	if db != nil {
		if err := coref.Declare(db); err != nil {
			return nil, err
		}
		rel, _ := db.Relation(coref.MentionRelation) // Declare found it
		desc := fmt.Sprintf("coref system: %d mentions", rel.Len())
		return &CorefSystem{Model: coref.DefaultModel(), desc: desc, protoDB: db}, nil
	}
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
	db = relstore.NewDB()
	if err := coref.LoadMentions(db, mentions); err != nil {
		return nil, err
	}
	desc := fmt.Sprintf("coref system: %d mentions of %d entities", len(mentions), cfg.NumEntities)
	return &CorefSystem{Model: coref.DefaultModel(), desc: desc, protoDB: db}, nil
}

// NewChainWorld clones the prototype world and binds a clustering, which
// starts from the clone's CLUSTER column, and a move proposer to it. The
// clones share nothing mutable.
func (s *CorefSystem) NewChainWorld(_ int) (*world.ChangeLog, mcmc.Proposer, error) {
	log := world.NewChangeLog(s.protoDB.Clone())
	state, err := coref.NewState(log)
	if err != nil {
		return nil, nil, err
	}
	return log, coref.NewMoveProposer(state, s.Model), nil
}

// WorldDB exposes the prototype world — the evidence a durable store
// snapshots and local-mode writes mutate.
func (s *CorefSystem) WorldDB() *relstore.DB { return s.protoDB }

// Describe returns a one-line summary of the workload as it was built.
func (s *CorefSystem) Describe() string { return s.desc }
