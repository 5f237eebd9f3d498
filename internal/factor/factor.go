// Package factor is the enumerable model: an explicit discrete factor
// graph (Section 3.1 of the paper) small enough to enumerate, served as a
// probabilistic database so that the paper's queries can be checked,
// through SQL, against their exact answer marginals.
//
// A Graph is built once and then shared read-only by every chain; a
// chain's assignment lives in its world. Model binds variable i to row i
// of a caller-built prototype world as a world.Prototype, and
// ExactAnswer computes Pr[t ∈ Q(W)] for a plan by brute force over every
// assignment — the oracle the sampled estimates converge to.
package factor

import (
	"fmt"
	"math"
)

// Domain is the finite value set of a discrete random variable.
type Domain struct {
	Name   string
	Values []string
}

// NewDomain builds a domain from its value names.
func NewDomain(name string, values ...string) *Domain {
	return &Domain{Name: name, Values: values}
}

// Size returns the number of values.
func (d *Domain) Size() int { return len(d.Values) }

// Index returns the position of the named value, or -1.
func (d *Domain) Index(value string) int {
	for i, v := range d.Values {
		if v == value {
			return i
		}
	}
	return -1
}

// Var is a hidden discrete random variable. Its value is not stored here:
// an assignment ([]int, indexed by ID) gives every variable's value as an
// index into its domain. Observed quantities are not modelled as Vars;
// they are baked into factor closures as constants.
type Var struct {
	ID   int
	Name string
	Dom  *Domain
}

// Factor scores the joint setting of its argument variables in log space.
// Score must be a pure function of the argument values.
type Factor struct {
	Name  string
	Vars  []*Var
	Score func(vals []int) float64
}

// Graph is an explicitly materialized factor graph.
type Graph struct {
	Vars    []*Var
	Factors []*Factor
	adj     [][]int // var ID -> indexes into Factors
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{} }

// AddVar creates a hidden variable.
func (g *Graph) AddVar(name string, dom *Domain) *Var {
	v := &Var{ID: len(g.Vars), Name: name, Dom: dom}
	g.Vars = append(g.Vars, v)
	g.adj = append(g.adj, nil)
	return v
}

// AddFactor attaches a factor over the given distinct variables.
func (g *Graph) AddFactor(name string, score func(vals []int) float64, vars ...*Var) (*Factor, error) {
	if len(vars) == 0 {
		return nil, fmt.Errorf("factor: factor %q has no variables", name)
	}
	for i, v := range vars {
		if v.ID >= len(g.Vars) || g.Vars[v.ID] != v {
			return nil, fmt.Errorf("factor: factor %q references a variable not in this graph", name)
		}
		// A repeated variable would put the factor in its adjacency
		// twice, and ScoreDelta would count it twice.
		for _, u := range vars[:i] {
			if u == v {
				return nil, fmt.Errorf("factor: factor %q lists variable %q twice", name, v.Name)
			}
		}
	}
	f := &Factor{Name: name, Vars: vars, Score: score}
	idx := len(g.Factors)
	g.Factors = append(g.Factors, f)
	for _, v := range vars {
		g.adj[v.ID] = append(g.adj[v.ID], idx)
	}
	return f, nil
}

// MustAddFactor is AddFactor that panics on error.
func (g *Graph) MustAddFactor(name string, score func(vals []int) float64, vars ...*Var) *Factor {
	f, err := g.AddFactor(name, score, vars...)
	if err != nil {
		panic(err)
	}
	return f
}

// scoreFactor scores f under assignment a with variable v taking val
// instead (v = -1 scores a as it is).
func scoreFactor(f *Factor, a []int, v, val int) float64 {
	vals := make([]int, len(f.Vars))
	for i, u := range f.Vars {
		vals[i] = a[u.ID]
		if u.ID == v {
			vals[i] = val
		}
	}
	return f.Score(vals)
}

// LogScore returns the unnormalized log probability of assignment a: the
// sum of all factor scores.
func (g *Graph) LogScore(a []int) float64 {
	var s float64
	for _, f := range g.Factors {
		s += scoreFactor(f, a, -1, 0)
	}
	return s
}

// ScoreDelta returns log π(a') − log π(a), where a' is a with variable v
// set to newVal, computing only the factors adjacent to v. This is the
// factor-cancellation identity of Appendix 9.2: all other factors cancel
// in the Metropolis-Hastings ratio. It does not modify a.
func (g *Graph) ScoreDelta(a []int, v, newVal int) float64 {
	if newVal == a[v] {
		return 0
	}
	var before, after float64
	for _, fi := range g.adj[v] {
		before += scoreFactor(g.Factors[fi], a, -1, 0)
	}
	for _, fi := range g.adj[v] {
		after += scoreFactor(g.Factors[fi], a, v, newVal)
	}
	return after - before
}

// stateSpaceLimit bounds brute-force enumeration.
const stateSpaceLimit = 1 << 22

// enumerate calls fn with every joint assignment and its unnormalized log
// score. The slice is reused between calls.
func (g *Graph) enumerate(fn func(a []int, logScore float64)) error {
	space := 1
	for _, v := range g.Vars {
		if v.Dom.Size() == 0 {
			return fmt.Errorf("factor: variable %q has empty domain", v.Name)
		}
		space *= v.Dom.Size()
		if space > stateSpaceLimit {
			return fmt.Errorf("factor: state space exceeds enumeration limit %d", stateSpaceLimit)
		}
	}
	a := make([]int, len(g.Vars))
	var rec func(i int)
	rec = func(i int) {
		if i == len(g.Vars) {
			fn(a, g.LogScore(a))
			return
		}
		for val := 0; val < g.Vars[i].Dom.Size(); val++ {
			a[i] = val
			rec(i + 1)
		}
	}
	rec(0)
	return nil
}

// worlds calls fn with every assignment of positive probability and that
// probability π(a)/Z. The slice is reused between calls.
func (g *Graph) worlds(fn func(a []int, p float64)) error {
	logZ := math.Inf(-1)
	if err := g.enumerate(func(_ []int, ls float64) { logZ = logAdd(logZ, ls) }); err != nil {
		return err
	}
	return g.enumerate(func(a []int, ls float64) {
		if p := math.Exp(ls - logZ); p > 0 {
			fn(a, p)
		}
	})
}

// ExactMarginals computes P(V_i = v) for every variable and value by
// brute-force enumeration. Only feasible for small graphs.
func (g *Graph) ExactMarginals() ([][]float64, error) {
	out := make([][]float64, len(g.Vars))
	for i, v := range g.Vars {
		out[i] = make([]float64, v.Dom.Size())
	}
	err := g.worlds(func(a []int, p float64) {
		for i, val := range a {
			out[i][val] += p
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ExactProb computes the probability of an event over assignments by
// enumeration.
func (g *Graph) ExactProb(event func(a []int) bool) (float64, error) {
	var sum float64
	err := g.worlds(func(a []int, p float64) {
		if event(a) {
			sum += p
		}
	})
	return sum, err
}

// logAdd returns log(exp(a)+exp(b)) stably.
func logAdd(a, b float64) float64 {
	if math.IsInf(a, -1) {
		return b
	}
	if math.IsInf(b, -1) {
		return a
	}
	if a < b {
		a, b = b, a
	}
	return a + math.Log1p(math.Exp(b-a))
}
