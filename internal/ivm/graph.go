package ivm

import (
	"math"

	"factordb/internal/ra"
	"factordb/internal/relstore"
)

// Graph owns a set of shared delta operators keyed by bound-subtree
// fingerprint (ra.Bound.Fingerprint) — the composable alternative to
// NewView's private operator trees. Views whose plans share a stateful
// prefix — the same join, group-agg or set operator — share one operator
// and its maintenance work, so a delta round costs each distinct subtree
// exactly once, however many views sit on top of it. A stage is keyed by
// its top node, so it is shared only whole: sharing part of one would
// save a predicate per delta row and cost a memo copy of each. The graph
// is single-goroutine by design, like the views it builds: one chain owns
// one graph.
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
// its output passes straight through, uncopied, with the inner operator's
// ownership, and retaining consumers clone unowned tuples on first
// insert exactly as they would under a private tree. A shared node
// records the round's output while forwarding it to its first consumer
// and replays the recording to the others. The reference count only
// changes in Mount and Unmount, which run between rounds, so one round
// never mixes the two regimes.
type graphNode struct {
	g     *Graph
	fp    string
	inner op
	kids  []*graphNode
	refs  int
	round uint64
	rec   *recording // built the first time the node runs shared
}

// recording is a shared node's output for one round. It is the inner
// operator's consumer while the round is computed, copying unowned
// tuples once, into an arena it reuses round after round.
type recording struct {
	memo  []ra.BagRow
	arena []relstore.Value // this round's copies of unowned memo tuples
	clone bool
	out   consumer // the first consumer of the round
}

func (n *graphNode) owned() bool { return n.inner.owned() }

func (n *graphNode) init(out consumer) error { return n.inner.init(out) }

// apply computes the node's output delta once per round. Consumers treat
// streamed tuples as read-only throughout this package, so sharing the
// recorded ones is safe.
func (n *graphNode) apply(d BaseDelta, out consumer) {
	if n.refs == 1 {
		n.inner.apply(d, out)
		return
	}
	if n.rec == nil {
		n.rec = &recording{}
	}
	r := n.rec
	if n.round == n.g.round {
		for i := range r.memo {
			out.push(r.memo[i].Tuple, r.memo[i].N)
		}
		return
	}
	r.memo, r.arena = r.memo[:0], r.arena[:0]
	r.clone, r.out = !n.inner.owned(), out
	n.inner.apply(d, r)
	n.round = n.g.round
}

// push records one item of the round's output and forwards it.
func (r *recording) push(t relstore.Tuple, c int64) {
	if r.clone {
		// Growing the arena leaves earlier copies where they are.
		mark := len(r.arena)
		r.arena = append(r.arena, t...)
		t = r.arena[mark:len(r.arena):len(r.arena)]
	}
	r.memo = append(r.memo, ra.BagRow{Tuple: t, N: c})
	r.out.push(t, c)
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
	v, err := newViewFrom(root)
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
