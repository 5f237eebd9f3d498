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
// shared model plus a pristine initial world (every LABEL = O) that is
// cloned into independent chains, each walked by its own ie.Tagger.
type NERSystem struct {
	Model *ie.Model
	// Index is the read-only token index over a fresh load of the
	// corpus, shared by the trainer and every chain's tagger.
	Index *ie.CorpusIndex

	*world.Prototype
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

// BuildNER generates a corpus, loads it into a prototype world, indexes
// it and trains the model on it with SampleRank (Section 5.2).
func BuildNER(cfg Config) (*NERSystem, error) { return BuildNEROver(cfg, nil) }

// BuildNEROver is BuildNER serving db, when it is not nil, instead of the
// world it loads: one this config's corpus was loaded into, such as a
// recovered one, on which it declares TOKEN.LABEL hidden. The model is
// still built over a load (db's snapshot may have re-coded STRING) and
// addresses db's rows in load order, which NewTagger checks only in
// number.
func BuildNEROver(cfg Config, db *relstore.DB) (*NERSystem, error) {
	gen := ie.DefaultGenConfig(cfg.NumTokens, cfg.Seed)
	if cfg.TokensPerDoc > 0 {
		gen.TokensPerDoc = cfg.TokensPerDoc
	}
	corpus, err := ie.Generate(gen)
	if err != nil {
		return nil, err
	}
	return buildNEROver(cfg, corpus, db)
}

// buildNEROver is BuildNEROver past generation; nothing it returns refers
// to corpus.
func buildNEROver(cfg Config, corpus *ie.Corpus, db *relstore.DB) (*NERSystem, error) {
	if cfg.TrainSteps == 0 {
		cfg.TrainSteps = min(20*cfg.NumTokens, 2_000_000)
	}
	load := relstore.NewDB()
	if err := ie.LoadCorpus(load, corpus, ie.LO); err != nil {
		return nil, err
	}
	index, err := ie.NewCorpusIndex(load)
	if err != nil {
		return nil, err
	}
	model := ie.NewModel(index.NumStrings(), cfg.UseSkip)
	trainer, err := ie.NewTrainer(model, index, load)
	if err != nil {
		return nil, err
	}
	trainer.Train(cfg.TrainSteps, 1.0, cfg.Seed+1)
	temp := cfg.Temperature
	if temp == 0 {
		temp = DefaultTemperature
	}
	for i := range *model.W {
		(*model.W)[i] /= temp
	}

	if db == nil {
		db = load
	} else if err := ie.Declare(db); err != nil {
		return nil, err
	}
	desc := fmt.Sprintf("NER system: %d tokens, %d docs, %d vocab, skip=%v",
		index.NumTokens(), index.NumDocs(), index.NumStrings(), model.UseSkip)
	// The paper's batching (five active documents, re-drawn every 2000
	// proposals) applies when the corpus is large enough.
	bind := func(log *world.ChangeLog) (mcmc.Proposer, error) {
		tg, err := ie.NewTagger(model, index, log)
		if err != nil {
			return nil, err
		}
		if index.NumDocs() > 5 {
			tg.ActiveDocs, tg.StepsPerBatch = 5, 2000
		}
		return tg, nil
	}
	return &NERSystem{Model: model, Index: index, Prototype: world.NewPrototype(db, desc, bind)}, nil
}

// Chain is one independent evaluator over a private copy of the world.
type Chain struct {
	Evaluator *core.Evaluator
	Tagger    *ie.Tagger
	Log       *world.ChangeLog

	// Spec is the compiled query's result-level ranking (ORDER BY /
	// LIMIT / the P pseudo-column). Evaluator.Results is the raw
	// estimate; core.SortTupleCIs applies the spec.
	Spec ra.ResultSpec
}

// NewChain clones the prototype world and builds an evaluator over it.
func (s *NERSystem) NewChain(mode core.Mode, sql string, stepsPerSample int, seed int64) (*Chain, error) {
	plan, spec, err := sqlparse.Compile(sql)
	if err != nil {
		return nil, err
	}
	log, p, err := s.NewChainWorld(0)
	if err != nil {
		return nil, err
	}
	ev, err := core.NewEvaluator(mode, log, p, plan, stepsPerSample, seed)
	if err != nil {
		return nil, err
	}
	return &Chain{Evaluator: ev, Tagger: p.(*ie.Tagger), Log: log, Spec: spec}, nil
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

// FormatDuration renders durations compactly for report tables.
func FormatDuration(d time.Duration, known bool) string {
	if !known {
		return "n/a"
	}
	return d.Round(time.Millisecond).String()
}
