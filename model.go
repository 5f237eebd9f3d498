package factordb

import (
	"fmt"
	"math"

	"factordb/internal/exp"
	"factordb/internal/relstore"
	"factordb/internal/world"
)

// Model describes a probabilistic-database workload: a factor-graph model
// whose prototype world, its hidden column declared, is cloned into
// independent possible-world chains. Build one with NER or Coref and hand
// it to Open; the interface is sealed (its methods are unexported) so the
// engine can evolve the chain-world contract without breaking callers.
type Model interface {
	// modelName is the short workload name ("ner", "coref"), used in
	// diagnostics and as the database/sql DSN prefix.
	modelName() string
	// build checks the config, trains the model and returns its prototype
	// serving w, or, when w is nil, a freshly loaded world. A non-nil w is
	// one a data directory recovered; the model addresses its rows in load
	// order. Called exactly once, by Open; expect it to be expensive
	// (corpus generation plus SampleRank training for the NER workload).
	build(w *relstore.DB) (*world.Prototype, error)
}

// badField is one config field and whether build refuses its value.
type badField struct {
	name string
	val  any
	bad  bool
}

// checkFields refuses the first bad field of config cfg by name.
func checkFields(cfg string, fields ...badField) error {
	for _, f := range fields {
		if f.bad {
			return fmt.Errorf("factordb: %s.%s = %v: want 0 (the default) or a positive finite value", cfg, f.name, f.val)
		}
	}
	return nil
}

// NERConfig parameterizes the paper's named-entity-recognition workload:
// a synthetic news corpus, a skip-chain CRF trained with SampleRank, and
// a TOKEN(DOC_ID, POS, STRING, LABEL) relation whose LABEL column is the
// uncertain field. The zero value gives a 20 000-token corpus with skip
// factors at seed 1. Zero in a numeric field means its default; a
// negative count or a negative or non-finite Temperature fails Open.
type NERConfig struct {
	// Tokens is the corpus size in tokens (0 = 20 000; must not be
	// negative).
	Tokens int
	// Seed drives corpus generation and training (default 1).
	Seed int64
	// TrainSteps overrides the SampleRank step heuristic (0 = auto; must
	// not be negative).
	TrainSteps int
	// TokensPerDoc overrides the generator's document length (0 = auto;
	// must not be negative).
	TokensPerDoc int
	// Temperature divides the trained weights (0 = package default);
	// higher keeps marginals soft and chains mixing. It must be finite and
	// not negative: a negative one would invert the trained model.
	Temperature float64
	// LinearChain disables the skip-chain factors.
	LinearChain bool
}

// NER returns the named-entity-recognition workload model.
func NER(cfg NERConfig) Model { return nerModel{cfg} }

type nerModel struct{ cfg NERConfig }

func (nerModel) modelName() string { return "ner" }

func (m nerModel) build(w *relstore.DB) (*world.Prototype, error) {
	cfg := m.cfg
	if err := checkFields("NERConfig",
		badField{"Tokens", cfg.Tokens, cfg.Tokens < 0},
		badField{"TrainSteps", cfg.TrainSteps, cfg.TrainSteps < 0},
		badField{"TokensPerDoc", cfg.TokensPerDoc, cfg.TokensPerDoc < 0},
		badField{"Temperature", cfg.Temperature, cfg.Temperature < 0 || math.IsNaN(cfg.Temperature) || math.IsInf(cfg.Temperature, 0)},
	); err != nil {
		return nil, err
	}
	if cfg.Tokens == 0 {
		cfg.Tokens = 20000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	sys, err := exp.BuildNEROver(exp.Config{
		NumTokens:    cfg.Tokens,
		Seed:         cfg.Seed,
		TrainSteps:   cfg.TrainSteps,
		UseSkip:      !cfg.LinearChain,
		TokensPerDoc: cfg.TokensPerDoc,
		Temperature:  cfg.Temperature,
	}, w)
	if err != nil {
		return nil, err
	}
	return sys.Prototype, nil
}

// CorefConfig parameterizes the entity-resolution workload: generated
// mention strings clustered by MCMC over a pairwise-cohesion model; the
// clustering is MENTION(MENTION_ID, STRING, CLUSTER)'s CLUSTER column.
// The zero value gives 6 entities with 4 mentions each at seed 0. Zero in
// a count means its default; a negative count fails Open, and so does an
// entity count the generator cannot give distinct surnames (about 70).
type CorefConfig struct {
	// Entities is the number of gold entities (0 = 6; must not be
	// negative).
	Entities int
	// MentionsPerEntity is the mentions generated per entity (0 = 4; must
	// not be negative).
	MentionsPerEntity int
	// Seed drives mention generation.
	Seed int64
}

// Coref returns the entity-resolution workload model. A reopened data
// directory is served from its own MENTION rows, whatever cfg says.
func Coref(cfg CorefConfig) Model { return corefModel{cfg} }

type corefModel struct{ cfg CorefConfig }

func (corefModel) modelName() string { return "coref" }

func (m corefModel) build(w *relstore.DB) (*world.Prototype, error) {
	if err := checkFields("CorefConfig",
		badField{"Entities", m.cfg.Entities, m.cfg.Entities < 0},
		badField{"MentionsPerEntity", m.cfg.MentionsPerEntity, m.cfg.MentionsPerEntity < 0},
	); err != nil {
		return nil, err
	}
	sys, err := exp.BuildCorefOver(exp.CorefConfig{
		NumEntities:       m.cfg.Entities,
		MentionsPerEntity: m.cfg.MentionsPerEntity,
		Seed:              m.cfg.Seed,
	}, w)
	if err != nil {
		return nil, err
	}
	return sys.Prototype, nil
}
