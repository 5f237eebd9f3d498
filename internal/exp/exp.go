// Package exp is the experiment harness that regenerates every figure of
// the paper's evaluation (Section 5) on the synthetic NER workload:
// Figure 4(a) scalability, Figure 4(b) loss-over-time, Figure 5
// parallelization, Figure 6 aggregate queries, and the appendix's
// Figure 7 histogram and Figure 8 Query-4 marginals. The same harness
// backs cmd/experiments and the repository-level benchmarks.
package exp

import (
	"fmt"
	"time"

	"factordb/internal/core"
	"factordb/internal/ie"
	"factordb/internal/mcmc"
	"factordb/internal/metrics"
	"factordb/internal/ra"
	"factordb/internal/relstore"
	"factordb/internal/sqlparse"
	"factordb/internal/world"
)

// The paper's evaluation queries, in the SQL dialect of sqlparse.
const (
	Query1 = `SELECT STRING FROM TOKEN WHERE LABEL='B-PER'`
	Query2 = `SELECT COUNT(*) AS PERSONS FROM TOKEN WHERE LABEL='B-PER'`
	Query3 = `SELECT T.DOC_ID FROM TOKEN T WHERE
 (SELECT COUNT(*) FROM TOKEN T1 WHERE T1.LABEL='B-PER' AND T.DOC_ID=T1.DOC_ID)
 =(SELECT COUNT(*) FROM TOKEN T1 WHERE T1.LABEL='B-ORG' AND T.DOC_ID=T1.DOC_ID)`
	Query4 = `SELECT T2.STRING FROM TOKEN T1, TOKEN T2
 WHERE T1.STRING='Boston' AND T1.LABEL='B-ORG'
 AND T1.DOC_ID=T2.DOC_ID AND T2.LABEL='B-PER'`

	// Query4Ranked is Query 4 as a first-class ranked query: the ten
	// highest-marginal answers, ordered and truncated by the engine via
	// the P pseudo-column (MystiQ-style top-k, Section 2's related work).
	Query4Ranked = Query4 + `
 ORDER BY P DESC LIMIT 10`
)

// NERSystem is a trained skip-chain NER probabilistic database: the
// shared model plus a pristine initial world (every LABEL = O) that can
// be cloned into independent chains.
type NERSystem struct {
	Corpus *ie.Corpus
	Vocab  *ie.Vocab
	Model  *ie.Model

	protoDB *relstore.DB
	rows    [][]relstore.RowID
}

// Config parameterizes system construction.
type Config struct {
	NumTokens    int
	Seed         int64
	TrainSteps   int  // SampleRank steps (0 = default heuristic)
	UseSkip      bool // skip-chain versus plain linear chain
	TokensPerDoc int  // 0 = generator default

	// Temperature divides the trained weights (0 means the default).
	// SampleRank's perceptron updates grow weights without bound, which
	// makes the distribution near-deterministic: chains mix slowly and
	// tuple marginals collapse to 0/1. Sampling at a temperature above 1
	// restores the soft, genuinely probabilistic answers shown in the
	// paper's Figures 7 and 8 and keeps the walk mixing.
	Temperature float64
}

// DefaultTemperature is applied when Config.Temperature is zero.
const DefaultTemperature = 3.0

// BuildNER generates a corpus, trains the model with SampleRank on an
// in-memory tagger (Section 5.2), and loads the corpus into a prototype
// database world.
func BuildNER(cfg Config) (*NERSystem, error) {
	if cfg.TrainSteps == 0 {
		cfg.TrainSteps = 20 * cfg.NumTokens
		if cfg.TrainSteps > 2_000_000 {
			cfg.TrainSteps = 2_000_000
		}
	}
	gen := ie.DefaultGenConfig(cfg.NumTokens, cfg.Seed)
	if cfg.TokensPerDoc > 0 {
		gen.TokensPerDoc = cfg.TokensPerDoc
	}
	corpus, err := ie.Generate(gen)
	if err != nil {
		return nil, err
	}
	vocab := ie.BuildVocab(corpus)
	model := ie.NewModel(vocab, cfg.UseSkip)
	trainer := ie.NewTagger(model, corpus, ie.LO)
	trainer.Train(cfg.TrainSteps, 1.0, cfg.Seed+1)
	temp := cfg.Temperature
	if temp == 0 {
		temp = DefaultTemperature
	}
	for k, v := range model.W.W {
		model.W.Set(k, v/temp)
	}
	// The weights are final: lay them out for array-indexed scoring before
	// chains on several goroutines share the model.
	model.Compile()

	db := relstore.NewDB()
	rows, err := ie.LoadCorpus(db, corpus, ie.LO)
	if err != nil {
		return nil, err
	}
	return &NERSystem{Corpus: corpus, Vocab: vocab, Model: model, protoDB: db, rows: rows}, nil
}

// Chain is one independent evaluator over a private copy of the world.
type Chain struct {
	Evaluator *core.Evaluator
	Tagger    *ie.Tagger
	Log       *world.ChangeLog

	// Spec is the compiled query's result-level ranking (ORDER BY /
	// LIMIT / the P pseudo-column). Evaluator.Results is the raw
	// estimate; RankedResultsCI applies the spec.
	Spec ra.ResultSpec
}

// RankedResultsCI returns the chain's current answer with Wilson
// intervals at normal quantile z, ordered and truncated per the
// query's ORDER BY / LIMIT clauses (a no-op for unranked queries).
func (c *Chain) RankedResultsCI(z float64) []core.TupleCI {
	return core.SortTupleCIs(c.Evaluator.Estimator().ResultsCI(z), c.Spec)
}

// NewChain clones the prototype world and builds an evaluator over it.
// The paper's batching parameters (five active documents, re-drawn every
// 2000 proposals) are applied when the corpus is large enough.
func (s *NERSystem) NewChain(mode core.Mode, sql string, stepsPerSample int, seed int64) (*Chain, error) {
	plan, spec, err := sqlparse.Compile(sql)
	if err != nil {
		return nil, err
	}
	log, tg, err := s.newChainWorld()
	if err != nil {
		return nil, err
	}
	ev, err := core.NewEvaluator(mode, log, tg, plan, stepsPerSample, seed)
	if err != nil {
		return nil, err
	}
	return &Chain{Evaluator: ev, Tagger: tg, Log: log, Spec: spec}, nil
}

// newChainWorld clones the prototype world and binds a fresh tagger to
// it, applying the paper's batching parameters (five active documents,
// re-drawn every 2000 proposals) when the corpus is large enough.
func (s *NERSystem) newChainWorld() (*world.ChangeLog, *ie.Tagger, error) {
	db := s.protoDB.Clone()
	log := world.NewChangeLog(db)
	tg := ie.NewTagger(s.Model, s.Corpus, ie.LO)
	if len(s.Corpus.Docs) > 5 {
		tg.ActiveDocs = 5
		tg.StepsPerBatch = 2000
	}
	if err := tg.BindDB(log, s.rows); err != nil {
		return nil, nil, err
	}
	return log, tg, nil
}

// NewChainWorld clones the prototype world and returns it with a bound
// proposer, for callers that drive the Metropolis-Hastings walk themselves
// rather than through a core.Evaluator. The serve engine uses this to
// stock its chain pool (it satisfies serve.Source); the chain index is
// unused here because every clone starts from the same pristine world.
func (s *NERSystem) NewChainWorld(_ int) (*world.ChangeLog, mcmc.Proposer, error) {
	log, tg, err := s.newChainWorld()
	if err != nil {
		return nil, nil, err
	}
	return log, tg, nil
}

// NewChainTagger is NewChainWorld with the proposer returned as the
// concrete *ie.Tagger, for callers that need tagger-level controls —
// notably TargetDocs, the query-targeted proposal restriction the public
// facade exposes as an option.
func (s *NERSystem) NewChainTagger(_ int) (*world.ChangeLog, *ie.Tagger, error) {
	return s.newChainWorld()
}

// ResolveExec resolves a DML mutation against the prototype world into
// concrete row-level ops without applying them — the local-mode write
// path (the served engine resolves on its live chain clones instead) logs
// the resolved batch between resolution and application. The caller
// serializes ResolveExec/ApplyExecOps against NewChainWorld.
func (s *NERSystem) ResolveExec(mut ra.Mutation) ([]world.Op, error) {
	return world.ResolveMutation(s.protoDB, mut)
}

// ApplyExecOps applies a previously resolved op batch to the prototype
// world, so every chain world cloned afterwards carries it. Deleted TOKEN
// rows simply stop mirroring the tagger's in-memory variables; inserted
// rows carry their LABEL as fixed evidence (no in-memory variable samples
// them). The change log is throwaway: the prototype world has no views
// to maintain, and chains clone the store, not the delta.
func (s *NERSystem) ApplyExecOps(ops []world.Op) (int64, error) {
	return world.NewChangeLog(s.protoDB).ApplyOps(ops)
}

// WorldDB exposes the prototype world — the evidence a durable store
// snapshots. Callers must not mutate it; use ApplyExecOps.
func (s *NERSystem) WorldDB() *relstore.DB { return s.protoDB }

// RestoreWorld replaces the prototype world with a recovered copy.
// Row identities line up because system construction is deterministic
// in its config (same corpus, same load order, same RowIDs), so the
// tagger bindings built from s.rows remain valid — exactly the property
// local-mode writes already rely on when cloning a mutated prototype.
func (s *NERSystem) RestoreWorld(db *relstore.DB) {
	s.protoDB = db
}

// GroundTruth estimates reference marginals with a long materialized run
// on a private chain (the paper's methodology, Section 5.2).
func (s *NERSystem) GroundTruth(sql string, samples, thin int, seed int64) (map[string]float64, error) {
	ch, err := s.NewChain(core.Materialized, sql, thin, seed)
	if err != nil {
		return nil, err
	}
	if err := ch.Evaluator.Run(samples, nil); err != nil {
		return nil, err
	}
	return ch.Evaluator.Marginals(), nil
}

// ---- Figure 4(a): scalability ----

// Fig4aRow is one point of the scalability plot: time for each evaluator
// to halve the squared error on Query 1 at a given database size.
type Fig4aRow struct {
	Tuples        int
	NaiveTime     time.Duration
	NaiveHalved   bool
	MaterTime     time.Duration
	MaterHalved   bool
	NaivePerSamp  time.Duration // mean wall time per query sample
	MaterPerSamp  time.Duration
	SamplesToHalf int64 // samples the materialized run needed
}

// Fig4aParams tunes the experiment.
type Fig4aParams struct {
	Sizes        []int
	Seed         int64
	Thin         int // MH steps between samples (paper: 10000)
	MaxSamples   int // per evaluator run
	TruthSamples int
	TruthThin    int
}

// DefaultFig4aParams returns laptop-scale defaults; cmd/experiments can
// raise them toward the paper's 10M-tuple sweep.
func DefaultFig4aParams() Fig4aParams {
	return Fig4aParams{
		Sizes:        []int{10_000, 30_000, 100_000, 300_000},
		Seed:         1,
		Thin:         2000,
		MaxSamples:   400,
		TruthSamples: 600,
		TruthThin:    2000,
	}
}

// Fig4a runs the scalability sweep.
func Fig4a(p Fig4aParams) ([]Fig4aRow, error) {
	var out []Fig4aRow
	for _, n := range p.Sizes {
		sys, err := BuildNER(Config{NumTokens: n, Seed: p.Seed, UseSkip: true})
		if err != nil {
			return nil, err
		}
		truth, err := sys.GroundTruth(Query1, p.TruthSamples, p.TruthThin, p.Seed+100)
		if err != nil {
			return nil, err
		}
		row := Fig4aRow{Tuples: n}
		for _, mode := range []core.Mode{core.Naive, core.Materialized} {
			ch, err := sys.NewChain(mode, Query1, p.Thin, p.Seed+200)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			tr, err := ch.Evaluator.RunTraced(p.MaxSamples, truth)
			if err != nil {
				return nil, err
			}
			elapsed := time.Since(start)
			half, ok := tr.TimeToHalve()
			per := elapsed / time.Duration(p.MaxSamples)
			if mode == core.Naive {
				row.NaiveTime, row.NaiveHalved, row.NaivePerSamp = half, ok, per
			} else {
				row.MaterTime, row.MaterHalved, row.MaterPerSamp = half, ok, per
				for i, pt := range tr.Points {
					if pt.Loss <= tr.Initial()/2 {
						row.SamplesToHalf = int64(i + 1)
						break
					}
				}
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// ---- Figure 4(b): loss versus time ----

// Fig4b returns normalized loss traces for both evaluators on Query 1
// over a database of n tuples.
func Fig4b(n, samples, thin int, seed int64) (naive, mater *metrics.Trace, err error) {
	sys, err := BuildNER(Config{NumTokens: n, Seed: seed, UseSkip: true})
	if err != nil {
		return nil, nil, err
	}
	truth, err := sys.GroundTruth(Query1, 600, thin, seed+100)
	if err != nil {
		return nil, nil, err
	}
	run := func(mode core.Mode) (*metrics.Trace, error) {
		ch, err := sys.NewChain(mode, Query1, thin, seed+200)
		if err != nil {
			return nil, err
		}
		return ch.Evaluator.RunTraced(samples, truth)
	}
	if naive, err = run(core.Naive); err != nil {
		return nil, nil, err
	}
	if mater, err = run(core.Materialized); err != nil {
		return nil, nil, err
	}
	return naive, mater, nil
}

// ---- Figure 5: parallelization ----

// Fig5Row is one point of the parallelization plot.
type Fig5Row struct {
	Chains   int
	SqErr    float64
	IdealErr float64 // single-chain error divided by the chain count
}

// Fig5 follows the paper's Section 5.4 methodology: identical copies of
// the initial world, ground truth obtained by averaging eight parallel
// chains for many samples each, then 1..maxChains evaluators run for
// samplesPerChain samples (100 in the paper) and the merged estimate is
// scored. Because the proposal batches over a few documents at a time,
// a single short chain only ever explores a fraction of the documents;
// additional chains multiply both coverage and sample independence,
// which is what produces the paper's near-linear (sometimes super-
// linear) error reduction.
func Fig5(n, maxChains, samplesPerChain, thin int, seed int64) ([]Fig5Row, error) {
	// Many small documents (as in the NYT corpus, 1788 articles) so each
	// active-set batch touches a meaningful fraction of the data, and a
	// burn-in past the all-O transient so per-chain error is dominated by
	// sampling variance — the component that independent chains remove.
	sys, err := BuildNER(Config{NumTokens: n, Seed: seed, UseSkip: true, TokensPerDoc: 60})
	if err != nil {
		return nil, err
	}
	burn := 20 * n
	truthEst, err := core.RunParallel(8, 1200, func(c int) (*core.Evaluator, error) {
		ch, err := sys.NewChain(core.Materialized, Query1, thin, seed+100+int64(c)*104729)
		if err != nil {
			return nil, err
		}
		ch.Evaluator.Burn(burn)
		return ch.Evaluator, nil
	})
	if err != nil {
		return nil, err
	}
	truth := truthEst.Marginals()

	var out []Fig5Row
	var base float64
	for chains := 1; chains <= maxChains; chains++ {
		est, err := core.RunParallel(chains, samplesPerChain, func(c int) (*core.Evaluator, error) {
			ch, err := sys.NewChain(core.Materialized, Query1, thin, seed+300+int64(chains*31+c)*7919)
			if err != nil {
				return nil, err
			}
			ch.Evaluator.Burn(burn)
			return ch.Evaluator, nil
		})
		if err != nil {
			return nil, err
		}
		loss := metrics.SquaredError(est.Marginals(), truth)
		if chains == 1 {
			base = loss
		}
		out = append(out, Fig5Row{Chains: chains, SqErr: loss, IdealErr: base / float64(chains)})
	}
	return out, nil
}

// ---- Figure 6: aggregate queries ----

// Fig6 returns loss traces for the two aggregate queries (Query 2 and
// Query 3) over a database of n tuples, both evaluated with the
// materialized evaluator.
func Fig6(n, samples, thin int, seed int64) (q2, q3 *metrics.Trace, err error) {
	sys, err := BuildNER(Config{NumTokens: n, Seed: seed, UseSkip: true})
	if err != nil {
		return nil, nil, err
	}
	run := func(sql string) (*metrics.Trace, error) {
		truth, err := sys.GroundTruth(sql, 600, thin, seed+100)
		if err != nil {
			return nil, err
		}
		ch, err := sys.NewChain(core.Materialized, sql, thin, seed+200)
		if err != nil {
			return nil, err
		}
		return ch.Evaluator.RunTraced(samples, truth)
	}
	if q2, err = run(Query2); err != nil {
		return nil, nil, err
	}
	if q3, err = run(Query3); err != nil {
		return nil, nil, err
	}
	return q2, q3, nil
}

// ---- Figure 7: Query 2 answer histogram ----

// HistRow is one bar of the aggregate answer distribution.
type HistRow struct {
	Count int64
	P     float64
}

// Fig7 samples Query 2 and returns the distribution over person-mention
// counts (the appendix's peaked, approximately normal histogram).
func Fig7(n, samples, thin int, seed int64) ([]HistRow, error) {
	sys, err := BuildNER(Config{NumTokens: n, Seed: seed, UseSkip: true})
	if err != nil {
		return nil, err
	}
	ch, err := sys.NewChain(core.Materialized, Query2, thin, seed+200)
	if err != nil {
		return nil, err
	}
	// Discard the all-O transient so the histogram reflects the
	// stationary answer distribution, as in the paper's appendix figure.
	ch.Evaluator.Burn(20 * n)
	if err := ch.Evaluator.Run(samples, nil); err != nil {
		return nil, err
	}
	var out []HistRow
	for _, tp := range ch.Evaluator.Results() {
		out = append(out, HistRow{Count: tp.Tuple[0].AsInt(), P: tp.P})
	}
	// Sort ascending by count value for a readable histogram.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Count < out[j-1].Count; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out, nil
}

// ---- Figure 8: Query 4 tuple probabilities ----

// Fig8 samples Query 4 and returns the per-person marginals.
func Fig8(n, samples, thin int, seed int64) ([]core.TupleProb, error) {
	sys, err := BuildNER(Config{NumTokens: n, Seed: seed, UseSkip: true})
	if err != nil {
		return nil, err
	}
	ch, err := sys.NewChain(core.Materialized, Query4, thin, seed+200)
	if err != nil {
		return nil, err
	}
	ch.Evaluator.Burn(20 * n)
	if err := ch.Evaluator.Run(samples, nil); err != nil {
		return nil, err
	}
	return ch.Evaluator.Results(), nil
}

// ---- Ablation: thinning interval k ----

// AblationKRow reports the effect of the thinning interval on the
// loss/time trade-off (the "choosing k is an open and interesting
// domain-specific problem" discussion of Section 4.1).
type AblationKRow struct {
	K     int
	AUC   float64
	Final float64
}

// AblationK sweeps the steps-per-sample parameter at fixed total step
// budget.
func AblationK(n int, ks []int, totalSteps int, seed int64) ([]AblationKRow, error) {
	sys, err := BuildNER(Config{NumTokens: n, Seed: seed, UseSkip: true})
	if err != nil {
		return nil, err
	}
	truth, err := sys.GroundTruth(Query1, 600, 2000, seed+100)
	if err != nil {
		return nil, err
	}
	var out []AblationKRow
	for _, k := range ks {
		ch, err := sys.NewChain(core.Materialized, Query1, k, seed+200)
		if err != nil {
			return nil, err
		}
		tr, err := ch.Evaluator.RunTraced(totalSteps/k, truth)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationKRow{K: k, AUC: tr.AUC(), Final: tr.Final()})
	}
	return out, nil
}

// ---- Ablation: query-targeted proposal distribution ----

// TargetedRow compares convergence of the default proposer with one
// restricted to the documents Query 4 can read from (those containing a
// "Boston" token) — the query-specific jump functions the paper proposes
// as future work (Sections 4.1 and 6).
type TargetedRow struct {
	Targeted   bool
	TargetDocs int
	TotalDocs  int
	AUC        float64 // area under loss-vs-wall-time (timing dependent)
	StepAUC    float64 // area under loss-vs-walk-steps (deterministic)
	Final      float64
}

// AblationTargeted runs Query 4 with and without document targeting at a
// fixed sample budget.
func AblationTargeted(n, samples, thin int, seed int64) ([]TargetedRow, error) {
	sys, err := BuildNER(Config{NumTokens: n, Seed: seed, UseSkip: true})
	if err != nil {
		return nil, err
	}
	target := ie.DocsContaining(sys.Corpus, "Boston")
	if len(target) == 0 {
		return nil, fmt.Errorf("exp: corpus has no Boston documents at this seed")
	}
	// Ground truth from a long targeted run (targeting is exact for
	// Query 4: documents are independent components and the answer only
	// reads Boston documents).
	truthChain, err := sys.NewChain(core.Materialized, Query4, thin, seed+100)
	if err != nil {
		return nil, err
	}
	if err := truthChain.Tagger.TargetDocs(target); err != nil {
		return nil, err
	}
	if err := truthChain.Evaluator.Run(3000, nil); err != nil {
		return nil, err
	}
	truth := truthChain.Evaluator.Marginals()

	var out []TargetedRow
	for _, targeted := range []bool{false, true} {
		ch, err := sys.NewChain(core.Materialized, Query4, thin, seed+200)
		if err != nil {
			return nil, err
		}
		if targeted {
			if err := ch.Tagger.TargetDocs(target); err != nil {
				return nil, err
			}
		}
		tr, err := ch.Evaluator.RunTraced(samples, truth)
		if err != nil {
			return nil, err
		}
		out = append(out, TargetedRow{
			Targeted:   targeted,
			TargetDocs: len(target),
			TotalDocs:  len(sys.Corpus.Docs),
			AUC:        tr.AUC(),
			StepAUC:    tr.AUCSteps(),
			Final:      tr.Final(),
		})
	}
	return out, nil
}

// FormatDuration renders durations compactly for report tables.
func FormatDuration(d time.Duration, known bool) string {
	if !known {
		return "n/a"
	}
	return d.Round(time.Millisecond).String()
}

// Describe returns a one-line summary of a system.
func (s *NERSystem) Describe() string {
	return fmt.Sprintf("NER system: %d tokens, %d docs, %d vocab, skip=%v",
		s.Corpus.NumTokens, len(s.Corpus.Docs), s.Vocab.Size(), s.Model.UseSkip)
}
