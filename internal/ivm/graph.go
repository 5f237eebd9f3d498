package ivm

import (
	"math"

	"factordb/internal/ra"
	"factordb/internal/relstore"
)

// Graph owns a set of shared delta operators keyed by bound-subtree
// fingerprint (ra.Bound.Fingerprint) — the composable alternative to
// NewView's private operator trees. Views whose plans share a prefix —
// the same scan, the same pushed-down selection, the same join — share
// one stateful operator and its maintenance work, so a delta round costs
// each distinct physical subtree exactly once, however many views sit on
// top of it. The graph is single-goroutine by design, like the views it
// builds: one chain owns one graph.
//
// Protocol: call NextRound exactly once per base delta, then Apply the
// same delta through every mounted view. The round counter is what lets
// an operator with several consumers tell "second consumer of this
// round's delta" (serve the memoized output) apart from "next delta"
// (recompute); stateful operators fold each delta into their state
// exactly once either way. An operator with one consumer needs neither
// the counter nor a memo and costs what it would in a private tree.
type Graph struct {
	round uint64
	nodes map[string]*graphNode
	hits  int64 // subtree reuses since construction
}

// NewGraph returns an empty shared-operator graph.
func NewGraph() *Graph {
	return &Graph{nodes: make(map[string]*graphNode)}
}

// graphNode wraps one operator of the graph with a reference count
// (direct parents plus views rooted here) and, while more than one
// consumer holds it, per-round output memoization. A node with a single
// consumer — every node of a view that shares nothing — is transparent:
// emissions pass straight through, uncopied, with the inner operator's
// ownership, and retaining consumers clone unowned tuples on first
// insert exactly as they would under a private tree. A shared node
// records the round's emissions while forwarding them to its first
// consumer (copying unowned tuples once, into an arena it reuses round
// after round) and replays the recording to the others. The reference count only changes
// in Mount and Unmount, which run between rounds, so one round never
// mixes the two regimes.
type graphNode struct {
	g     *Graph
	fp    string
	inner op
	kids  []*graphNode
	refs  int
	round uint64
	memo  []ra.BagRow
	arena []relstore.Value // this round's copies of unowned memo tuples
}

func (n *graphNode) owned() bool { return n.inner.owned() }

func (n *graphNode) init(emit emitFn) error { return n.inner.init(emit) }

// apply computes the node's output delta once per round. Consumers treat
// streamed tuples as read-only throughout this package, so sharing the
// recorded ones is safe.
func (n *graphNode) apply(d BaseDelta, emit emitFn) {
	if n.refs == 1 {
		n.inner.apply(d, emit)
		return
	}
	if n.round == n.g.round {
		for i := range n.memo {
			emit(n.memo[i].Tuple, n.memo[i].N)
		}
		return
	}
	n.memo, n.arena = n.memo[:0], n.arena[:0]
	clone := !n.inner.owned()
	n.inner.apply(d, func(t relstore.Tuple, c int64) {
		if clone {
			// Growing the arena leaves earlier copies where they are.
			mark := len(n.arena)
			n.arena = append(n.arena, t...)
			t = n.arena[mark:len(n.arena):len(n.arena)]
		}
		n.memo = append(n.memo, ra.BagRow{Tuple: t, N: c})
		emit(t, c)
	})
	n.round = n.g.round
}

// NextRound starts a new delta round. Every mounted view must see the
// same base delta within one round.
func (g *Graph) NextRound() { g.round++ }

// Nodes reports the number of live shared operators.
func (g *Graph) Nodes() int { return len(g.nodes) }

// SubtreeHits reports how many Mount calls reused an existing operator
// subtree instead of building one.
func (g *Graph) SubtreeHits() int64 { return g.hits }

// Mount compiles b into a view whose operators are shared with every
// other view mounted on this graph wherever subtree fingerprints match,
// and initializes it with a full evaluation. Mounting re-initializes any
// reused operators along the new view's path; their state is a
// deterministic function of the current base relations, so concurrent
// views observe no change. Operators the new view shares with no other
// run as they would under NewView, so a view that shares nothing pays
// nothing for being mounted here. Mount must be called between rounds
// (never between NextRound and the round's Apply calls).
func (g *Graph) Mount(b *ra.Bound) (*View, error) {
	root, err := g.mountNode(b)
	if err != nil {
		return nil, err
	}
	v, err := newViewFrom(root, b.Schema)
	if err != nil {
		g.release(root)
		return nil, err
	}
	return v, nil
}

// Unmount releases a mounted view's hold on its operators; operators no
// longer referenced by any view are evicted along with their state. The
// view must have been returned by this graph's Mount and must not be
// Applied afterwards. Views built by NewView are not graph-managed and
// are ignored.
func (g *Graph) Unmount(v *View) {
	if n, ok := v.root.(*graphNode); ok && n.g == g {
		g.release(n)
	}
}

func (g *Graph) release(n *graphNode) {
	n.refs--
	if n.refs > 0 {
		return
	}
	delete(g.nodes, n.fp)
	for _, k := range n.kids {
		g.release(k)
	}
}

func (g *Graph) mountNode(b *ra.Bound) (*graphNode, error) {
	fp := b.Fingerprint()
	if n, ok := g.nodes[fp]; ok {
		n.refs++
		g.hits++
		return n, nil
	}
	// round starts poisoned so a freshly (re)mounted node never mistakes
	// the current round for one it already served.
	n := &graphNode{g: g, fp: fp, refs: 1, round: math.MaxUint64}
	inner, err := compileNode(b, func(c *ra.Bound) (op, error) {
		k, kerr := g.mountNode(c)
		if kerr != nil {
			return nil, kerr
		}
		n.kids = append(n.kids, k)
		return k, nil
	})
	if err != nil {
		for _, k := range n.kids {
			g.release(k)
		}
		return nil, err
	}
	n.inner = inner
	g.nodes[fp] = n
	return n, nil
}
