package exp

import (
	"cmp"
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

// CorefConfig parameterizes the entity-resolution workload: the mention
// generator's config, where zero in a count means its default (6
// entities, 4 mentions each).
type CorefConfig = coref.GenConfig

// CorefSystem is the entity-resolution probabilistic database: a
// prototype world (MENTION, whose CLUSTER column holds the starting
// clustering) cloned into independent chains, each walked by a
// coref.MoveProposer under the pairwise-cohesion model.
type CorefSystem struct{ *world.Prototype }

// BuildCorefOver generates the mention set and loads it once into the
// prototype world, every mention in its own cluster. When db is not nil
// it serves db instead: db, such as a world recovered from a data
// directory, is served as it stands, with MENTION.CLUSTER declared
// hidden, and cfg is not read.
func BuildCorefOver(cfg CorefConfig, db *relstore.DB) (*CorefSystem, error) {
	var desc string
	if db != nil {
		if err := coref.Declare(db); err != nil {
			return nil, err
		}
		rel, _ := db.Relation(coref.MentionRelation) // Declare found it
		desc = fmt.Sprintf("coref system: %d mentions", rel.Len())
	} else {
		cfg.NumEntities = cmp.Or(cfg.NumEntities, 6)
		cfg.MentionsPerEntity = cmp.Or(cfg.MentionsPerEntity, 4)
		mentions, err := coref.Generate(cfg)
		if err != nil {
			return nil, err
		}
		db = relstore.NewDB()
		if err := coref.LoadMentions(db, mentions); err != nil {
			return nil, err
		}
		desc = fmt.Sprintf("coref system: %d mentions of %d entities", len(mentions), cfg.NumEntities)
	}
	m := coref.DefaultModel()
	// A chain's clustering starts from its clone's CLUSTER column.
	bind := func(log *world.ChangeLog) (mcmc.Proposer, error) {
		state, err := coref.NewState(log)
		if err != nil {
			return nil, err
		}
		return coref.NewMoveProposer(state, m), nil
	}
	return &CorefSystem{world.NewPrototype(db, desc, bind)}, nil
}
