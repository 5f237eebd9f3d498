package coref

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"factordb/internal/mcmc"
	"factordb/internal/relstore"
	"factordb/internal/world"
)

// MentionRelation is the name of the mention relation:
// MENTION(MENTION_ID, STRING, CLUSTER) where CLUSTER is the hidden field.
const MentionRelation = "MENTION"

// ClusterCol is the column index of the hidden CLUSTER attribute.
const ClusterCol = 2

// MentionSchema returns the MENTION relation schema.
func MentionSchema() *relstore.Schema {
	return relstore.MustSchema(MentionRelation,
		relstore.Column{Name: "MENTION_ID", Type: relstore.TInt},
		relstore.Column{Name: "STRING", Type: relstore.TString},
		relstore.Column{Name: "CLUSTER", Type: relstore.TInt},
	)
}

// Declare declares MENTION.CLUSTER, the column the proposer samples,
// hidden in db: LoadMentions does so for the world it loads, and a
// recovered world, whose snapshot does not carry the declaration, gets
// it here.
func Declare(db *relstore.DB) error { return db.DeclareHidden(MentionRelation, ClusterCol) }

// LoadMentions materializes mentions into a fresh MENTION relation with
// singleton clusters: mention i is row i.
func LoadMentions(db *relstore.DB, mentions []Mention) error {
	rel, err := db.Create(MentionSchema())
	if err != nil {
		return err
	}
	if err := Declare(db); err != nil {
		return err
	}
	for i, m := range mentions {
		if _, err := rel.Insert(relstore.Tuple{
			relstore.Int(int64(m.ID)),
			relstore.String(m.Str),
			relstore.Int(int64(i)), // singleton cluster = own index
		}); err != nil {
			return fmt.Errorf("coref: loading mentions: %w", err)
		}
	}
	return nil
}

// MoveProposer is the constraint-preserving proposal distribution over
// clusterings: pick a mention uniformly, then move it to a uniformly
// chosen other cluster or to a fresh singleton. Moves are the degenerate
// split-merge of Section 3.4 — moving out of a cluster splits it, moving
// into one merges — and because the representation is a partition,
// transitivity always holds without deterministic factors. The number of
// available targets differs between a state and its reverse, so the exact
// Hastings correction is computed.
type MoveProposer struct {
	State *State
	Model *Model

	// Write-through binding: the CLUSTER column of MENTION, resolved once.
	bound bool
	field world.Field

	// The pending move: mention m goes to cluster target (< 0 = a fresh
	// singleton); noop when there is nowhere to move. others is the
	// scratch list of candidate clusters.
	m, target int
	noop      bool
	others    []int
}

// NewMoveProposer builds a proposer over the state.
func NewMoveProposer(s *State, m *Model) *MoveProposer {
	return &MoveProposer{State: s, Model: m}
}

// BindDB connects the proposer to a database change log so accepted moves
// update the MENTION relation's CLUSTER field, whose rows must follow
// LoadMentions's layout of the state's mentions. A relation that has not
// issued every id the state addresses is refused.
func (p *MoveProposer) BindDB(log *world.ChangeLog) error {
	field, err := log.Field(MentionRelation, ClusterCol)
	if err != nil {
		return err
	}
	rel, _ := log.DB().Relation(MentionRelation) // Field found it
	if n := relstore.RowID(len(p.State.Mentions)); n > rel.NextID() {
		return fmt.Errorf("coref: the state addresses %d %s rows, but the relation has issued only %d ids", n, MentionRelation, rel.NextID())
	}
	p.bound, p.field = true, field
	return nil
}

// options returns the number of move targets available to mention m in
// the current state: every other cluster, plus a fresh singleton unless m
// already is one.
func (p *MoveProposer) options(m int) int {
	k := p.State.NumClusters()
	if p.State.IsSingleton(m) {
		return k - 1
	}
	return k
}

// Propose implements mcmc.Proposer.
func (p *MoveProposer) Propose(rng *rand.Rand) mcmc.Proposal {
	s := p.State
	m := rng.Intn(len(s.Mentions))
	optsFwd := p.options(m)
	p.noop = optsFwd == 0
	if p.noop {
		// Single cluster containing a single mention: nowhere to go.
		return mcmc.Proposal{}
	}
	// Choose the target uniformly among other clusters (+ fresh unless
	// singleton).
	from := s.Cluster(m)
	others := p.others[:0]
	for c := range s.members {
		if c != from {
			others = append(others, c)
		}
	}
	slices.Sort(others)
	p.others = others
	target := -1 // fresh singleton
	pick := rng.Intn(optsFwd)
	if pick < len(others) {
		target = others[pick]
	}

	// Backward options: in the new state m is a singleton iff it moved to
	// a fresh cluster; cluster count changes when the source empties or a
	// fresh cluster appears.
	kAfter := s.NumClusters()
	if s.IsSingleton(m) {
		kAfter-- // source disappears
	}
	if target < 0 {
		kAfter++ // fresh cluster appears
	}
	optsBack := kAfter
	if target < 0 {
		optsBack = kAfter - 1 // m will be a singleton
	}

	delta := p.Model.MoveDelta(s, m, target)
	logQ := 0.0
	if optsBack > 0 {
		logQ = math.Log(float64(optsFwd)) - math.Log(float64(optsBack))
	}
	p.m, p.target = m, target
	return mcmc.Proposal{LogScoreDelta: delta, LogQRatio: logQ}
}

// Accept implements mcmc.Proposer.
func (p *MoveProposer) Accept() {
	if p.noop {
		return
	}
	dest := p.State.Move(p.m, p.target)
	if p.bound {
		if err := p.field.Set(relstore.RowID(p.m), relstore.Int(int64(dest))); err != nil {
			// A mention deleted by DML stops mirroring; the in-memory
			// clustering keeps being sampled.
			if !errors.Is(err, relstore.ErrNotFound) {
				panic(fmt.Sprintf("coref: write-through failed: %v", err))
			}
		}
	}
}

// GenConfig parameterizes the synthetic mention generator.
type GenConfig struct {
	NumEntities       int
	MentionsPerEntity int
	Seed              int64
}

// Generate produces synthetic mentions: each entity has a canonical
// "First Last" name and its mentions are surface variants (full name,
// initialized first name, single tokens), echoing the "John Smith" /
// "J. Smith" / "J. Simms" example of Figure 1.
func Generate(cfg GenConfig) ([]Mention, error) {
	if cfg.NumEntities <= 0 || cfg.MentionsPerEntity <= 0 {
		return nil, fmt.Errorf("coref: entities and mentions per entity must be positive")
	}
	firsts := []string{"John", "Jane", "George", "Maria", "David", "Susan", "Pedro", "Laura"}
	lasts := []string{"Smith", "Jones", "Miklau", "Wick", "Chen", "Ortiz", "Garcia", "McCallum"}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Expand the surname inventory so distinct entities rarely collide on
	// bare surnames (entities sharing a surname are genuinely ambiguous
	// for a string-similarity model).
	syllables := []string{"son", "berg", "ford", "well", "ton", "ley", "mann", "dale"}
	for len(lasts) < 4*cfg.NumEntities {
		s := lasts[rng.Intn(8)] + syllables[rng.Intn(len(syllables))]
		lasts = append(lasts, s)
	}
	var out []Mention
	id := 0
	used := make(map[string]bool)
	for e := 0; e < cfg.NumEntities; e++ {
		first := firsts[rng.Intn(len(firsts))]
		last := lasts[rng.Intn(len(lasts))]
		for used[last] {
			last = lasts[rng.Intn(len(lasts))]
		}
		used[last] = true
		for k := 0; k < cfg.MentionsPerEntity; k++ {
			var s string
			switch rng.Intn(4) {
			case 0:
				s = first + " " + last
			case 1:
				s = first[:1] + ". " + last
			case 2:
				s = last
			default:
				s = first + " " + last
			}
			out = append(out, Mention{ID: id, Str: s, Gold: e})
			id++
		}
	}
	return out, nil
}
