package factordb

import (
	"fmt"
	"math"

	"factordb/internal/exp"
	"factordb/internal/relstore"
	"factordb/internal/serve"
)

// Model describes a probabilistic-database workload: a factor-graph model
// over a relational schema, from which independent possible-world chains
// are stocked. Build one with NER or Coref and hand it to Open; the
// interface is sealed (its methods are unexported) so the engine can
// evolve the chain-world contract without breaking callers.
type Model interface {
	// modelName is the short workload name ("ner", "coref"), used in
	// diagnostics and as the database/sql DSN prefix.
	modelName() string
	// build trains the model and returns the chain-world factory serving
	// w, or, when w is nil, a freshly loaded world. A non-nil w is one a
	// data directory recovered; the model addresses its rows in load
	// order. Called exactly once, by Open; expect it to be expensive
	// (corpus generation plus SampleRank training for the NER workload).
	build(w *relstore.DB) (system, error)
}

// system is the built form of a Model: the serving engine's source — a
// prototype evidence world plus a proposer bound to each clone of it —
// with a one-line description.
type system interface {
	serve.Source
	Describe() string
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

func (m nerModel) build(w *relstore.DB) (system, error) {
	cfg := m.cfg
	for _, f := range []struct {
		name string
		val  any
		bad  bool
	}{
		{"Tokens", cfg.Tokens, cfg.Tokens < 0},
		{"TrainSteps", cfg.TrainSteps, cfg.TrainSteps < 0},
		{"TokensPerDoc", cfg.TokensPerDoc, cfg.TokensPerDoc < 0},
		{"Temperature", cfg.Temperature, cfg.Temperature < 0 || math.IsNaN(cfg.Temperature) || math.IsInf(cfg.Temperature, 0)},
	} {
		if f.bad {
			return nil, fmt.Errorf("factordb: NERConfig.%s = %v: want 0 (the default) or a positive finite value", f.name, f.val)
		}
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
	return sys, nil
}

// CorefConfig parameterizes the entity-resolution workload: generated
// mention strings clustered by MCMC over a pairwise-cohesion model; the
// clustering is MENTION(MENTION_ID, STRING, CLUSTER)'s CLUSTER column.
// The zero value gives 6 entities with 4 mentions each at seed 0.
type CorefConfig struct {
	// Entities is the number of gold entities (default 6).
	Entities int
	// MentionsPerEntity is the mentions generated per entity (default 4).
	MentionsPerEntity int
	// Seed drives mention generation.
	Seed int64
}

// Coref returns the entity-resolution workload model. A reopened data
// directory is served from its own MENTION rows, whatever cfg says.
func Coref(cfg CorefConfig) Model { return corefModel{cfg} }

type corefModel struct{ cfg CorefConfig }

func (corefModel) modelName() string { return "coref" }

func (m corefModel) build(w *relstore.DB) (system, error) {
	return exp.BuildCorefOver(exp.CorefConfig{
		NumEntities:       m.cfg.Entities,
		MentionsPerEntity: m.cfg.MentionsPerEntity,
		Seed:              m.cfg.Seed,
	}, w)
}
