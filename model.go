package factordb

import (
	"fmt"

	"factordb/internal/exp"
	"factordb/internal/ie"
	"factordb/internal/mcmc"
	"factordb/internal/ra"
	"factordb/internal/relstore"
	"factordb/internal/world"
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
	// build trains the model and returns the chain-world factory. Called
	// exactly once, by Open; expect it to be expensive (corpus generation
	// plus SampleRank training for the NER workload).
	build() (system, error)
}

// system is the built form of a Model: a one-line description plus the
// chain-world factory shared by every evaluation strategy (the serving
// engine consumes it directly as its serve.Source).
type system interface {
	Describe() string
	NewChainWorld(chain int) (*world.ChangeLog, mcmc.Proposer, error)
}

// NERConfig parameterizes the paper's named-entity-recognition workload:
// a synthetic news corpus, a skip-chain CRF trained with SampleRank, and
// a TOKEN(DOC_ID, POS, STRING, LABEL) relation whose LABEL column is the
// uncertain field. The zero value gives a 20 000-token corpus with skip
// factors at seed 1.
type NERConfig struct {
	// Tokens is the corpus size in tokens (default 20 000).
	Tokens int
	// Seed drives corpus generation and training (default 1).
	Seed int64
	// TrainSteps overrides the SampleRank step heuristic (0 = auto).
	TrainSteps int
	// TokensPerDoc overrides the generator's document length (0 = auto).
	TokensPerDoc int
	// Temperature divides the trained weights (0 = package default);
	// higher keeps marginals soft and chains mixing.
	Temperature float64
	// LinearChain disables the skip-chain factors.
	LinearChain bool
	// TargetSubstring, when non-empty, restricts MCMC proposals to
	// documents containing the substring — the query-targeted proposal
	// distribution the paper suggests as future work. Build fails if no
	// document matches.
	TargetSubstring string
}

// NER returns the named-entity-recognition workload model.
func NER(cfg NERConfig) Model { return nerModel{cfg} }

type nerModel struct{ cfg NERConfig }

func (nerModel) modelName() string { return "ner" }

func (m nerModel) build() (system, error) {
	cfg := m.cfg
	if cfg.Tokens <= 0 {
		cfg.Tokens = 20000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	sys, err := exp.BuildNER(exp.Config{
		NumTokens:    cfg.Tokens,
		Seed:         cfg.Seed,
		TrainSteps:   cfg.TrainSteps,
		UseSkip:      !cfg.LinearChain,
		TokensPerDoc: cfg.TokensPerDoc,
		Temperature:  cfg.Temperature,
	})
	if err != nil {
		return nil, err
	}
	if cfg.TargetSubstring == "" {
		return sys, nil
	}
	docs := ie.DocsContaining(sys.Corpus, cfg.TargetSubstring)
	if len(docs) == 0 {
		return nil, fmt.Errorf("factordb: no document contains %q at this corpus seed", cfg.TargetSubstring)
	}
	return &targetedNER{sys: sys, docs: docs}, nil
}

// targetedNER restricts every chain's proposal distribution to the
// matched documents before handing the world out.
type targetedNER struct {
	sys  *exp.NERSystem
	docs []int
}

func (t *targetedNER) Describe() string {
	return fmt.Sprintf("%s, proposals targeted to %d docs", t.sys.Describe(), len(t.docs))
}

func (t *targetedNER) NewChainWorld(chain int) (*world.ChangeLog, mcmc.Proposer, error) {
	log, tg, err := t.sys.NewChainTagger(chain)
	if err != nil {
		return nil, nil, err
	}
	if err := tg.TargetDocs(t.docs); err != nil {
		return nil, nil, err
	}
	return log, tg, nil
}

// The write and durability capabilities forward to the underlying
// prototype world: proposal targeting only shapes the walk, so a
// targeted NER database is just as writable and durable as a plain one.
func (t *targetedNER) ResolveExec(mut ra.Mutation) ([]world.Op, error) {
	return t.sys.ResolveExec(mut)
}
func (t *targetedNER) ApplyExecOps(ops []world.Op) (int64, error) { return t.sys.ApplyExecOps(ops) }
func (t *targetedNER) WorldDB() *relstore.DB                      { return t.sys.WorldDB() }
func (t *targetedNER) RestoreWorld(db *relstore.DB)               { t.sys.RestoreWorld(db) }

// CorefConfig parameterizes the entity-resolution workload: generated
// mention strings clustered by MCMC over a pairwise-cohesion model, with
// the clustering written through to MENTION(MENTION_ID, STRING, CLUSTER).
// The zero value gives 6 entities with 4 mentions each at seed 0.
type CorefConfig struct {
	// Entities is the number of gold entities (default 6).
	Entities int
	// MentionsPerEntity is the mentions generated per entity (default 4).
	MentionsPerEntity int
	// Seed drives mention generation.
	Seed int64
}

// Coref returns the entity-resolution workload model.
func Coref(cfg CorefConfig) Model { return corefModel{cfg} }

type corefModel struct{ cfg CorefConfig }

func (corefModel) modelName() string { return "coref" }

func (m corefModel) build() (system, error) {
	return exp.BuildCoref(exp.CorefConfig{
		NumEntities:       m.cfg.Entities,
		MentionsPerEntity: m.cfg.MentionsPerEntity,
		Seed:              m.cfg.Seed,
	})
}
