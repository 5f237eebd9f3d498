package factor

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// chainGraph builds a small chain MRF with random log-linear potentials.
func chainGraph(n int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	dom := NewDomain("bit", "0", "1")
	g := NewGraph()
	vars := make([]*Var, n)
	for i := range vars {
		vars[i] = g.AddVar("y", dom)
		w := rng.NormFloat64()
		g.MustAddFactor("bias", func(vals []int) float64 {
			if vals[0] == 1 {
				return w
			}
			return 0
		}, vars[i])
	}
	for i := 1; i < n; i++ {
		w := rng.NormFloat64()
		g.MustAddFactor("trans", func(vals []int) float64 {
			if vals[0] == vals[1] {
				return w
			}
			return -w
		}, vars[i-1], vars[i])
	}
	return g
}

func TestDomain(t *testing.T) {
	d := NewDomain("labels", "O", "B-PER", "I-PER")
	if d.Size() != 3 {
		t.Errorf("Size = %d", d.Size())
	}
	if d.Index("B-PER") != 1 || d.Index("NOPE") != -1 {
		t.Error("Index lookup broken")
	}
}

// randomAssignment draws a uniform assignment of g's variables.
func randomAssignment(g *Graph, rng *rand.Rand) []int {
	a := make([]int, len(g.Vars))
	for i, v := range g.Vars {
		a[i] = rng.Intn(v.Dom.Size())
	}
	return a
}

func TestLogScoreIsSumOfFactors(t *testing.T) {
	g := chainGraph(4, 1)
	a := randomAssignment(g, rand.New(rand.NewSource(1)))
	var manual float64
	for _, f := range g.Factors {
		vals := make([]int, len(f.Vars))
		for i, v := range f.Vars {
			vals[i] = a[v.ID]
		}
		manual += f.Score(vals)
	}
	if got := g.LogScore(a); math.Abs(got-manual) > 1e-12 {
		t.Errorf("LogScore = %v, want %v", got, manual)
	}
}

// TestScoreDeltaMatchesFullRescore verifies the factor-cancellation
// identity of Appendix 9.2: the local delta equals a full-graph rescore.
func TestScoreDeltaMatchesFullRescore(t *testing.T) {
	g := chainGraph(6, 2)
	rng := rand.New(rand.NewSource(3))
	a := randomAssignment(g, rng)
	for trial := 0; trial < 200; trial++ {
		v := rng.Intn(len(g.Vars))
		newVal := rng.Intn(g.Vars[v].Dom.Size())
		before := g.LogScore(a)
		delta := g.ScoreDelta(a, v, newVal)
		a[v] = newVal
		after := g.LogScore(a)
		if math.Abs(delta-(after-before)) > 1e-9 {
			t.Fatalf("trial %d: ScoreDelta = %v, full rescore = %v", trial, delta, after-before)
		}
	}
}

func TestScoreDeltaNoChangeIsZero(t *testing.T) {
	g := chainGraph(3, 4)
	a := []int{1, 0, 1}
	if d := g.ScoreDelta(a, 0, a[0]); d != 0 {
		t.Errorf("self-assignment delta = %v, want 0", d)
	}
}

func TestScoreDeltaDoesNotMutate(t *testing.T) {
	g := chainGraph(3, 5)
	a := []int{0, 1, 0}
	g.ScoreDelta(a, 1, 1-a[1])
	if a[0] != 0 || a[1] != 1 || a[2] != 0 {
		t.Fatalf("ScoreDelta mutated the assignment: %v", a)
	}
}

func TestExactMarginalsUniform(t *testing.T) {
	// A graph whose only factor is constant: marginals must be uniform.
	dom := NewDomain("d", "a", "b", "c")
	g := NewGraph()
	v := g.AddVar("v", dom)
	g.MustAddFactor("const", func([]int) float64 { return 1.5 }, v)
	m, err := g.ExactMarginals()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range m[0] {
		if math.Abs(p-1.0/3) > 1e-12 {
			t.Errorf("marginal = %v, want uniform", m[0])
		}
	}
}

func TestExactMarginalsSingleVarBias(t *testing.T) {
	// One binary var with bias w on value 1: P(1) = e^w / (1 + e^w).
	dom := NewDomain("bit", "0", "1")
	g := NewGraph()
	v := g.AddVar("v", dom)
	w := 0.7
	g.MustAddFactor("bias", func(vals []int) float64 {
		if vals[0] == 1 {
			return w
		}
		return 0
	}, v)
	m, err := g.ExactMarginals()
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(w) / (1 + math.Exp(w))
	if math.Abs(m[0][1]-want) > 1e-12 {
		t.Errorf("P(1) = %v, want %v", m[0][1], want)
	}
}

func TestExactMarginalsSumToOne(t *testing.T) {
	g := chainGraph(5, 6)
	m, err := g.ExactMarginals()
	if err != nil {
		t.Fatal(err)
	}
	for i, dist := range m {
		var s float64
		for _, p := range dist {
			s += p
		}
		if math.Abs(s-1) > 1e-9 {
			t.Errorf("var %d marginals sum to %v", i, s)
		}
	}
}

func TestExactProb(t *testing.T) {
	g := chainGraph(4, 7)
	m, err := g.ExactMarginals()
	if err != nil {
		t.Fatal(err)
	}
	// The event "var 2 equals 1" must agree with its marginal.
	p, err := g.ExactProb(func(a []int) bool { return a[2] == 1 })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-m[2][1]) > 1e-12 {
		t.Errorf("ExactProb = %v, marginal = %v", p, m[2][1])
	}
	// Impossible event.
	p, _ = g.ExactProb(func([]int) bool { return false })
	if p != 0 {
		t.Errorf("impossible event prob = %v", p)
	}
	// Certain event.
	p, _ = g.ExactProb(func([]int) bool { return true })
	if math.Abs(p-1) > 1e-12 {
		t.Errorf("certain event prob = %v", p)
	}
}

func TestDeterministicConstraintFactor(t *testing.T) {
	// Section 3.2: deterministic factors zero out impossible worlds. In
	// log space a violated constraint scores -Inf.
	dom := NewDomain("bit", "0", "1")
	g := NewGraph()
	a := g.AddVar("a", dom)
	b := g.AddVar("b", dom)
	g.MustAddFactor("eq", func(vals []int) float64 {
		if vals[0] == vals[1] {
			return 0
		}
		return math.Inf(-1)
	}, a, b)
	p, err := g.ExactProb(func(as []int) bool { return as[0] != as[1] })
	if err != nil {
		t.Fatal(err)
	}
	if p != 0 {
		t.Errorf("constraint-violating worlds have prob %v, want 0", p)
	}
}

func TestEnumerationLimit(t *testing.T) {
	dom := NewDomain("big", make([]string, 1<<12)...)
	g := NewGraph()
	a := g.AddVar("a", dom)
	b := g.AddVar("b", dom)
	g.MustAddFactor("f", func([]int) float64 { return 0 }, a, b)
	if _, err := g.ExactMarginals(); err == nil {
		t.Error("oversized enumeration should error")
	}
}

func TestAddFactorValidation(t *testing.T) {
	g := NewGraph()
	dom := NewDomain("bit", "0", "1")
	v := g.AddVar("v", dom)
	if _, err := g.AddFactor("empty", func([]int) float64 { return 0 }); err == nil {
		t.Error("factor with no variables: want error")
	}
	other := NewGraph().AddVar("w", dom)
	if _, err := g.AddFactor("foreign", func([]int) float64 { return 0 }, other); err == nil {
		t.Error("factor over foreign variable: want error")
	}
	if _, err := g.AddFactor("ok", func([]int) float64 { return 0 }, v); err != nil {
		t.Errorf("valid factor rejected: %v", err)
	}
}

// TestAddFactorRejectsRepeatedVariable: a factor listing one variable
// twice would sit in that variable's adjacency twice, so ScoreDelta would
// count it twice while LogScore counts it once, and the walk would target
// the wrong distribution. No graph holding such a factor can be built.
func TestAddFactorRejectsRepeatedVariable(t *testing.T) {
	g := NewGraph()
	v := g.AddVar("v", NewDomain("bit", "0", "1"))
	both := func(vals []int) float64 {
		if vals[0] == 1 && vals[1] == 1 {
			return 1.5
		}
		return 0
	}
	_, err := g.AddFactor("self", both, v, v)
	if err == nil || !strings.Contains(err.Error(), `"self"`) {
		t.Fatalf("AddFactor over (v, v): err = %v, want an error naming the factor", err)
	}
	if len(g.Factors) != 0 {
		t.Fatalf("rejected factor was kept: %d factors", len(g.Factors))
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAddFactor over (v, v) did not panic")
		}
	}()
	g.MustAddFactor("self", both, v, v)
}
