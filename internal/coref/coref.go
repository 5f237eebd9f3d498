// Package coref implements the entity-resolution substrate of Figure 1
// (bottom row): mentions of named entities are clustered into real-world
// entities, with a factor graph scoring within-cluster cohesion. The
// clustering representation keeps transitivity implicit — any clustering
// is a valid world — so the sampler never needs the cubic number of
// deterministic transitivity factors (Section 3.4).
//
// A mention's text and cluster are its STRING and CLUSTER fields in the
// chain's world, read on every use; a move writes CLUSTER through the
// world's change log. Writes are seen at the next proposal: an UPDATEd
// STRING is scored, a DELETEd mention leaves its cluster, an INSERTed
// one is a variable starting in the cluster its CLUSTER value names,
// whatever its sign. A fresh cluster takes an id above every one in use.
package coref

import (
	"fmt"
	"sort"
	"strings"
	"unicode"

	"factordb/internal/relstore"
	"factordb/internal/world"
)

// Mention is one generated mention string; Gold is the identifier of the
// true underlying entity, which only an evaluation reads.
type Mention struct {
	ID   int
	Str  string
	Gold int
}

// State is a clustering of mentions: the hidden part of the possible
// world, held in the CLUSTER column of a MENTION relation, mention m
// being row m. Beside it the state keeps the live rows and the members
// of each cluster, rebuilt at the first proposal after a write changes
// the relation's evidence. Cluster ids are arbitrary but stable between
// moves.
type State struct {
	rel   *relstore.Relation
	field world.Field
	gen   uint64 // rel.EvidenceGen() the index was built at

	rows    []int // live mentions, ascending: the ones a proposal draws
	members map[int]map[int]struct{}
	nextID  int // a fresh cluster's id: above every cluster in use, and ≥ 0
}

// NewState binds a clustering to the MENTION relation of a chain's world,
// starting from the clusters its CLUSTER column holds.
func NewState(log *world.ChangeLog) (*State, error) {
	field, err := log.Field(MentionRelation, ClusterCol)
	if err != nil {
		return nil, err
	}
	rel, _ := log.DB().Relation(MentionRelation) // Field found it
	s := &State{rel: rel, field: field, members: make(map[int]map[int]struct{})}
	s.rebuild()
	return s, nil
}

// rebuild derives the index from the relation. The next fresh cluster id
// is one past the largest in use, and at least 0.
func (s *State) rebuild() {
	s.gen = s.rel.EvidenceGen()
	s.rows = s.rows[:0]
	clear(s.members)
	s.nextID = 0
	s.rel.Scan(func(id relstore.RowID, t relstore.Tuple) bool {
		m, c := int(id), int(t[ClusterCol].AsInt())
		s.rows = append(s.rows, m)
		if s.members[c] == nil {
			s.members[c] = make(map[int]struct{})
		}
		s.members[c][m] = struct{}{}
		s.nextID = max(s.nextID, c+1)
		return true
	})
}

// Cluster returns the cluster id of mention m.
func (s *State) Cluster(m int) int {
	v, _ := s.rel.GetCol(relstore.RowID(m), ClusterCol)
	return int(v.AsInt())
}

// text returns the mention string of mention m.
func (s *State) text(m int) string {
	v, _ := s.rel.GetCol(relstore.RowID(m), stringCol)
	return v.AsString()
}

// NumClusters returns the number of non-empty clusters.
func (s *State) NumClusters() int { return len(s.members) }

// Members returns the mention indexes in cluster c, sorted.
func (s *State) Members(c int) []int {
	set := s.members[c]
	out := make([]int, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Ints(out)
	return out
}

// ClusterIDs returns all non-empty cluster ids, sorted.
func (s *State) ClusterIDs() []int {
	out := make([]int, 0, len(s.members))
	for c := range s.members {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// IsSingleton reports whether mention m is alone in its cluster.
func (s *State) IsSingleton(m int) bool { return len(s.members[s.Cluster(m)]) == 1 }

// Move transfers mention m into cluster target, an existing cluster or
// nextID (a fresh one, which no mention is in), and returns target.
// Emptied clusters disappear. Moving a mention to its own cluster is a
// no-op.
func (s *State) Move(m, target int) int {
	from := s.Cluster(m)
	if target == from {
		return from
	}
	if _, ok := s.members[target]; !ok {
		if target != s.nextID {
			panic(fmt.Sprintf("coref: move to unknown cluster %d", target))
		}
		s.nextID++
		s.members[target] = make(map[int]struct{})
	}
	if err := s.field.Set(relstore.RowID(m), relstore.Int(int64(target))); err != nil {
		panic(fmt.Sprintf("coref: moving mention %d: %v", m, err))
	}
	delete(s.members[from], m)
	if len(s.members[from]) == 0 {
		delete(s.members, from)
	}
	s.members[target][m] = struct{}{}
	return target
}

// Similarity returns a string affinity in [0,1] combining exact match,
// token overlap with initial expansion ("J. Smith" ~ "John Smith"), and
// normalized edit distance. It is the walk's inner loop — every proposal
// scores the moved mention against two clusters — so it allocates nothing
// unless a name has more than 64 tokens or both exceed 64 bytes.
func Similarity(a, b string) float64 {
	if a == b {
		return 1
	}
	tokSim := tokenOverlap(a, b)
	ed := 1 - normalizedLevenshtein(a, b)
	if tokSim > ed {
		return tokSim
	}
	return ed
}

// nextField splits the first whitespace-separated token off s, returning
// "" when none is left: strings.Fields one token at a time, without
// building the slice.
func nextField(s string) (tok, rest string) {
	i := strings.IndexFunc(s, notSpace)
	if i < 0 {
		return "", ""
	}
	s = s[i:]
	if j := strings.IndexFunc(s, unicode.IsSpace); j >= 0 {
		return s[:j], s[j:]
	}
	return s, ""
}

func notSpace(r rune) bool { return !unicode.IsSpace(r) }

// countFields is len(strings.Fields(s)).
func countFields(s string) int {
	n := 0
	for tok, rest := nextField(s); tok != ""; tok, rest = nextField(rest) {
		n++
	}
	return n
}

// tokenOverlap is the fraction of tokens of the shorter name matched in
// the longer one, where an initial like "J." matches any token starting
// with 'J'.
func tokenOverlap(a, b string) float64 {
	na, nb := countFields(a), countFields(b)
	if na == 0 || nb == 0 {
		return 0
	}
	if na > nb {
		a, b, nb = b, a, na
	}
	// used is a bitset over b's tokens, one stack word for ≤ 64 tokens.
	var word [1]uint64
	used := word[:]
	if nb > 64 {
		used = make([]uint64, (nb+63)/64)
	}
	matched := 0
	for ta, restA := nextField(a); ta != ""; ta, restA = nextField(restA) {
		j := 0
		for tb, restB := nextField(b); tb != ""; tb, restB = nextField(restB) {
			if bit := uint64(1) << (j % 64); used[j/64]&bit == 0 && tokensMatch(ta, tb) {
				used[j/64] |= bit
				matched++
				break
			}
			j++
		}
	}
	return float64(matched) / float64(nb)
}

func tokensMatch(a, b string) bool {
	if a == b {
		return true
	}
	ia, ib := isInitial(a), isInitial(b)
	if ia && len(b) > 0 && a[0] == b[0] {
		return true
	}
	if ib && len(a) > 0 && b[0] == a[0] {
		return true
	}
	return false
}

func isInitial(t string) bool {
	return len(t) == 2 && t[1] == '.' || len(t) == 1
}

// normalizedLevenshtein is edit distance divided by the longer length.
func normalizedLevenshtein(a, b string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	// The distance is symmetric, so the DP rows run over the shorter
	// string, on the stack when it is at most 64 bytes.
	if len(b) > len(a) {
		a, b = b, a
	}
	la, lb := len(a), len(b)
	var rows [2][65]int
	var prev, cur []int
	if lb < len(rows[0]) {
		prev, cur = rows[0][:lb+1], rows[1][:lb+1]
	} else {
		prev, cur = make([]int, lb+1), make([]int, lb+1)
	}
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j] + 1 // deletion
			if v := cur[j-1] + 1; v < m {
				m = v // insertion
			}
			if v := prev[j-1] + cost; v < m {
				m = v // substitution
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return float64(prev[lb]) / float64(la)
}

// Model scores clusterings with pairwise within-cluster factors: each
// same-cluster mention pair contributes W·(Similarity − Threshold), so
// cohesive clusters score positively and incoherent merges are penalized
// (the "mentions in clusters should be cohesive" dependency of Pane D).
type Model struct {
	// W scales the pairwise affinity factors.
	W float64
	// Threshold is the similarity above which a pair prefers to share a
	// cluster.
	Threshold float64
}

// DefaultModel returns the configuration used in examples and benchmarks.
func DefaultModel() *Model { return &Model{W: 4, Threshold: 0.5} }

// PairScore is the log-space factor value for mention strings a and b
// sharing a cluster.
func (mo *Model) PairScore(a, b string) float64 {
	return mo.W * (Similarity(a, b) - mo.Threshold)
}

// Score computes the full log score of a state (sum over same-cluster
// pairs). Used by tests; inference only ever computes deltas.
func (mo *Model) Score(s *State) float64 {
	var total float64
	for _, c := range s.ClusterIDs() {
		ms := s.Members(c)
		for i := 0; i < len(ms); i++ {
			for j := i + 1; j < len(ms); j++ {
				total += mo.PairScore(s.text(ms[i]), s.text(ms[j]))
			}
		}
	}
	return total
}

// MoveDelta returns log π(w') − log π(w) for moving mention m to cluster
// target (an existing cluster or nextID, a fresh one), touching only
// factors incident to m: pairs gained in the target cluster minus pairs
// lost in the source cluster.
func (mo *Model) MoveDelta(s *State, m, target int) float64 {
	from := s.Cluster(m)
	if target == from {
		return 0
	}
	str := s.text(m)
	var delta float64
	for x := range s.members[target] {
		delta += mo.PairScore(str, s.text(x))
	}
	for x := range s.members[from] {
		if x != m {
			delta -= mo.PairScore(str, s.text(x))
		}
	}
	return delta
}
