package exp

import (
	"testing"

	"factordb/internal/core"
	"factordb/internal/ie"
)

// Small-scale smoke tests: the figures are regenerated at full scale by
// cmd/experiments; here we verify the harness wiring end to end.

func TestBuildAndChains(t *testing.T) {
	sys, err := BuildNER(Config{NumTokens: 3000, Seed: 5, UseSkip: true, TrainSteps: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Describe() == "" {
		t.Error("Describe empty")
	}
	// Two chains over clones must not interfere.
	a, err := sys.NewChain(core.Materialized, Query1, 500, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.NewChain(core.Naive, Query1, 500, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Evaluator.Run(20, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Evaluator.Run(20, nil); err != nil {
		t.Fatal(err)
	}
	// Same seed, same proposer layout → identical estimates.
	am, bm := a.Evaluator.Marginals(), b.Evaluator.Marginals()
	if len(am) == 0 {
		t.Fatal("no B-PER marginals; trained model seems degenerate")
	}
	if len(am) != len(bm) {
		t.Fatalf("marginal sets differ: %d vs %d", len(am), len(bm))
	}
	for k, v := range am {
		if bm[k] != v {
			t.Fatalf("chains with same seed disagree on %q: %v vs %v", k, v, bm[k])
		}
	}
}

// TestChainsShareCorpusIndex checks that every chain's tagger reads the
// one corpus index BuildNER made — the same pointer, not a copy — while
// owning its labels: a flip in one chain is invisible to the other.
func TestChainsShareCorpusIndex(t *testing.T) {
	sys, err := BuildNER(Config{NumTokens: 2000, Seed: 5, UseSkip: true, TrainSteps: 2000})
	if err != nil {
		t.Fatal(err)
	}
	_, a, err := sys.NewChainTagger(0)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := sys.NewChainTagger(1)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Index == nil || a.Index != sys.Index || b.Index != sys.Index {
		t.Fatalf("chain taggers read indexes %p and %p, want the system's %p", a.Index, b.Index, sys.Index)
	}
	a.Docs[0].Labels[0] = ie.LBPer
	if b.Docs[0].Labels[0] != ie.LO {
		t.Fatal("a label flip in one chain reached another")
	}
}

func TestFig4aSmoke(t *testing.T) {
	rows, err := Fig4a(Fig4aParams{
		Sizes: []int{2000}, Seed: 3, Thin: 300, MaxSamples: 120,
		TruthSamples: 200, TruthThin: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Tuples != 2000 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].NaivePerSamp <= 0 || rows[0].MaterPerSamp <= 0 {
		t.Error("per-sample times missing")
	}
}

func TestFig4bSmoke(t *testing.T) {
	naive, mater, err := Fig4b(2000, 80, 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(naive.Points) != 80 || len(mater.Points) != 80 {
		t.Fatalf("trace lengths %d/%d", len(naive.Points), len(mater.Points))
	}
}

func TestFig5Smoke(t *testing.T) {
	rows, err := Fig5(2000, 3, 60, 300, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0].Chains != 1 || rows[2].Chains != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[2].SqErr >= rows[0].SqErr {
		t.Errorf("3 chains should beat 1: %v vs %v", rows[2].SqErr, rows[0].SqErr)
	}
}

func TestFig6Smoke(t *testing.T) {
	q2, q3, err := Fig6(2000, 60, 300, 9)
	if err != nil {
		t.Fatal(err)
	}
	if q2.Final() > q2.Initial() {
		t.Errorf("Query 2 loss grew: %v -> %v", q2.Initial(), q2.Final())
	}
	if len(q3.Points) != 60 {
		t.Errorf("Query 3 trace has %d points", len(q3.Points))
	}
}

func TestFig7Smoke(t *testing.T) {
	rows, err := Fig7(2000, 100, 300, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("empty histogram")
	}
	var mass float64
	prev := int64(-1)
	for _, r := range rows {
		mass += r.P
		if r.Count < prev {
			t.Error("histogram not sorted by count")
		}
		prev = r.Count
	}
	// Every sample lands on exactly one count, so probabilities sum to 1.
	if mass < 0.999 || mass > 1.001 {
		t.Errorf("histogram mass = %v", mass)
	}
}

func TestFig8Smoke(t *testing.T) {
	// Needs Boston labeled B-ORG co-occurring with persons; at small
	// scales the answer may be sparse but the machinery must run.
	rows, err := Fig8(4000, 80, 300, 13)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range rows {
		if tp.P < 0 || tp.P > 1 {
			t.Errorf("probability out of range: %v", tp.P)
		}
	}
}

func TestAblationTargetedSmoke(t *testing.T) {
	rows, err := AblationTargeted(6000, 60, 300, 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Targeted || !rows[1].Targeted {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[1].TargetDocs <= 0 || rows[1].TargetDocs > rows[1].TotalDocs {
		t.Errorf("target docs %d of %d", rows[1].TargetDocs, rows[1].TotalDocs)
	}
	// Targeting a selective query should not converge much slower. Compare
	// the step-based AUC — wall-time AUC is scheduler noise — and allow a
	// wide margin: at this corpus size per-seed MCMC variance swamps the
	// targeting effect (seeds differ on which proposer wins), so this is a
	// deterministic sanity bound, not a performance assertion.
	if rows[1].StepAUC > rows[0].StepAUC*2 {
		t.Errorf("targeted step-AUC %.3f much worse than uniform %.3f", rows[1].StepAUC, rows[0].StepAUC)
	}
}

func TestAblationKSmoke(t *testing.T) {
	rows, err := AblationK(2000, []int{100, 400}, 20000, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].K != 100 {
		t.Fatalf("rows = %+v", rows)
	}
}
