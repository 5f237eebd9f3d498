package ie

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"factordb/internal/learn"
	"factordb/internal/mcmc"
	"factordb/internal/relstore"
	"factordb/internal/world"
)

// TokenRelation is the name of the token relation, with the paper's
// schema: TOKEN(TOK_ID, DOC_ID, STRING, LABEL, TRUTH) where TOK_ID is the
// primary key, LABEL is the hidden field initialized to "O", and TRUTH
// holds the (here: generator) gold label used for training.
const TokenRelation = "TOKEN"

// TokenSchema returns the TOKEN relation schema.
func TokenSchema() *relstore.Schema {
	return relstore.MustSchema(TokenRelation,
		relstore.Column{Name: "TOK_ID", Type: relstore.TInt},
		relstore.Column{Name: "DOC_ID", Type: relstore.TInt},
		relstore.Column{Name: "STRING", Type: relstore.TString},
		relstore.Column{Name: "LABEL", Type: relstore.TString},
		relstore.Column{Name: "TRUTH", Type: relstore.TString},
	)
}

// The column indexes of TOKEN's attributes; LABEL is the hidden one.
const (
	docCol    = 1
	stringCol = 2
	LabelCol  = 3
	truthCol  = 4
)

// Declare declares TOKEN.LABEL, the column the tagger samples, hidden in
// db and interns the nine labels in it, so no flip interns one. LoadCorpus
// does so for the world it loads; a recovered world, whose snapshot
// carries neither the declaration nor the labels no live row held, gets
// both here. A reloaded dictionary codes the labels its rows hold first,
// so a LABEL code need not be its Label (see Tagger).
func Declare(db *relstore.DB) error {
	if err := db.DeclareHidden(TokenRelation, LabelCol); err != nil {
		return err
	}
	rel, _ := db.Relation(TokenRelation) // DeclareHidden found it
	return rel.Intern(LabelCol, LabelNames[:]...)
}

// LoadCorpus materializes the corpus into a fresh TOKEN relation in db,
// with LABEL initialized to init: token i of document d is row first+i,
// first being the tokens of the documents before it. The label inventory
// takes the first LABEL and TRUTH codes, in Label order, so no flip ever
// interns one and a TRUTH code is its gold Label; a string's STRING code,
// issued in order of first use, is its emission row in θ. The loaded
// vectors are trimmed (relstore.Relation.Trim) before anything borrows or
// clones them.
func LoadCorpus(db *relstore.DB, c *Corpus, init Label) error {
	rel, err := db.Create(TokenSchema())
	if err != nil {
		return err
	}
	if err := Declare(db); err != nil {
		return err
	}
	if err := rel.Intern(truthCol, LabelNames[:]...); err != nil {
		return err
	}
	tokID := int64(0)
	for d := range c.Docs {
		doc := &c.Docs[d]
		for _, t := range doc.Tokens {
			if _, err := rel.Insert(relstore.Tuple{
				relstore.Int(tokID),
				relstore.Int(int64(doc.ID)),
				relstore.String(t.Str),
				relstore.String(init.String()),
				relstore.String(t.Gold.String()),
			}); err != nil {
				return fmt.Errorf("ie: loading corpus: %w", err)
			}
			tokID++
		}
	}
	rel.Trim()
	return nil
}

// Tagger is the MCMC proposal distribution of Section 5.1 and the
// SampleRank training interface over one world, which holds its labels:
// token i of a document is the LABEL code of TOKEN row first+i, read
// through a code-to-Label table from the column's current vector on every
// read. A flip writes the code through the change log (a chain) or into
// the relation (a trainer). A DELETEd row's tombstone keeps its code and
// refuses every flip, so its label freezes there while it still shapes
// its neighbours' factors (ROADMAP item 2 would unlink it).
type Tagger struct {
	Model *Model
	Docs  []*LabeledDoc
	// Index is the shared read-only corpus index the documents read
	// their STRING codes, capitalisation and skip edges from.
	Index *CorpusIndex

	rel    *relstore.Relation // the world's TOKEN relation
	labels []Label            // by LABEL code; a code no label has reads O
	logged bool               // flips go through field (a chain)
	field  world.Field

	gold relstore.Slots // a trainer's TRUTH codes by row (see NewTrainer)

	// ActiveDocs and StepsPerBatch reproduce the paper's batching: up to
	// ActiveDocs documents' variables form the working set L, re-drawn
	// every StepsPerBatch proposals. Zero values mean "all documents /
	// never refresh".
	ActiveDocs    int
	StepsPerBatch int

	active       []int
	sinceRefresh int

	// The pending move of the two-phase proposal protocol: position i of
	// document d takes newLabel.
	d, i     int
	newLabel Label
}

// NewTagger builds a chain's tagger over log's world, a Declared world
// laid out by LoadCorpus, starting from the labels it holds. θ must be
// sized for the index's strings; nothing is copied per token.
func NewTagger(m *Model, ix *CorpusIndex, log *world.ChangeLog) (*Tagger, error) {
	field, err := log.Field(TokenRelation, LabelCol)
	if err != nil {
		return nil, err
	}
	rel, _ := log.DB().Relation(TokenRelation) // Field found it
	return taggerOver(m, ix, rel, true, field)
}

// NewTrainer is a tagger over a private clone of db, a load of the
// indexed corpus, with no change log, so training writes no world anyone
// reads. ProposeRank, Accuracy and SpanF1 score it against db's TRUTH
// codes, borrowed as the index borrows STRING.
func NewTrainer(m *Model, ix *CorpusIndex, db *relstore.DB) (*Tagger, error) {
	rel, err := db.Clone().Relation(TokenRelation)
	if err != nil {
		return nil, err
	}
	t, err := taggerOver(m, ix, rel, false, world.Field{})
	if err != nil {
		return nil, err
	}
	if t.gold, _, err = rel.StringCodes(truthCol); err != nil {
		return nil, err
	}
	return t, nil
}

// taggerOver builds a tagger over rel, flipping through field if logged.
// It refuses a relation missing ids the index addresses, whose flips would
// miss them, and a trainer's with more, whose gold rows the index does not
// address. Its table covers the codes LABEL's dictionary has issued, the
// nine labels among them (Declare). StringCodes marks the LABEL vector
// shared, so the first flip copies it, as a clone's first flip does anyway,
// at the width it has: 1 B per token while no LABEL code exceeds 255, as
// on every load, which holds the nine labels only.
func taggerOver(m *Model, ix *CorpusIndex, rel *relstore.Relation, logged bool, field world.Field) (*Tagger, error) {
	if n := relstore.RowID(ix.tokens); n > rel.NextID() || !logged && n != rel.NextID() {
		return nil, fmt.Errorf("ie: the index addresses %d %s rows, but the relation has issued %d ids", n, TokenRelation, rel.NextID())
	}
	_, strs, err := rel.StringCodes(LabelCol)
	if err != nil {
		return nil, err
	}
	t := &Tagger{Model: m, Docs: make([]*LabeledDoc, len(ix.docs)), Index: ix,
		rel: rel, labels: slices.Grow([]Label(nil), len(strs)), logged: logged, field: field}
	for _, s := range strs {
		l, _ := ParseLabel(s)
		t.labels = append(t.labels, l)
	}
	lds := make([]LabeledDoc, len(ix.docs))
	for d := range ix.docs {
		lds[d] = LabeledDoc{ix: &ix.docs[d], t: t}
		t.Docs[d] = &lds[d]
	}
	return t, nil
}

// goldOf returns the gold label of position i of ld; t is a trainer.
func (t *Tagger) goldOf(ld *LabeledDoc, i int) Label { return Label(t.gold.At(ld.ix.first + i)) }

// refreshActive re-draws the working set of documents (Section 5.1: "up
// to five documents worth of variables ... selected uniformly at random").
func (t *Tagger) refreshActive(rng *rand.Rand) {
	if t.ActiveDocs <= 0 || t.ActiveDocs >= len(t.Docs) {
		t.active = nil // nil means "all docs"
		return
	}
	t.active = t.active[:0]
	for len(t.active) < t.ActiveDocs {
		t.active = append(t.active, rng.Intn(len(t.Docs)))
	}
}

// pick selects a (document, position) uniformly from the working set.
func (t *Tagger) pick(rng *rand.Rand) (int, int) {
	if t.StepsPerBatch > 0 {
		if t.sinceRefresh%t.StepsPerBatch == 0 {
			t.refreshActive(rng)
		}
		t.sinceRefresh++
	}
	var d int
	if t.active != nil {
		d = t.active[rng.Intn(len(t.active))]
	} else {
		d = rng.Intn(len(t.Docs))
	}
	return d, rng.Intn(t.Docs[d].Len())
}

// set relabels position i of ld in its tagger's world; its current label
// writes nothing. A deleted row refuses with relstore.ErrNotFound, which is
// dropped (see Tagger); any other refusal is a program bug.
func (ld *LabeledDoc) set(i int, l Label) {
	t, row, v := ld.t, relstore.RowID(ld.ix.first+i), relstore.String(LabelNames[l])
	var err error
	switch {
	case ld.Label(i) == l:
	case t.logged:
		err = t.field.Set(row, v)
	default:
		err = t.rel.SetCol(row, LabelCol, v)
	}
	if err != nil && !errors.Is(err, relstore.ErrNotFound) {
		panic(fmt.Sprintf("ie: label write failed: %v", err))
	}
}

// Propose implements mcmc.Proposer: the proposal distribution of
// Section 5.1 (uniform variable, uniform label, symmetric).
func (t *Tagger) Propose(rng *rand.Rand) mcmc.Proposal {
	ld := t.draw(rng)
	return mcmc.Proposal{LogScoreDelta: t.Model.ScoreDelta(ld, t.i, t.newLabel)}
}

// draw picks the pending move — a position and a label for it, uniform
// over the inventory — and returns the document it lies in.
func (t *Tagger) draw(rng *rand.Rand) *LabeledDoc {
	t.d, t.i = t.pick(rng)
	t.newLabel = Label(rng.Intn(NumLabels))
	return t.Docs[t.d]
}

// Accept implements mcmc.Proposer and learn.Proposer: it commits the
// pending move. Proposing the label a position already has is a no-op.
func (t *Tagger) Accept() { t.Docs[t.d].set(t.i, t.newLabel) }

// ProposeRank implements learn.Proposer for SampleRank training; t is a
// trainer. The objective is per-token accuracy against the gold labels.
func (t *Tagger) ProposeRank(rng *rand.Rand, d *learn.Delta) float64 {
	ld := t.draw(rng)
	i, newLabel := t.i, t.newLabel
	t.Model.FeatureDelta(d, ld, i, newLabel)
	gold, old := t.goldOf(ld, i), ld.Label(i)
	switch {
	case newLabel == old:
		return 0
	case newLabel == gold:
		return 1
	case old == gold:
		return -1
	}
	return 0
}

// Accuracy returns the fraction of tokens whose current label matches
// gold; t is a trainer.
func (t *Tagger) Accuracy() float64 {
	var ok, n float64
	for _, ld := range t.Docs {
		for i := range ld.Len() {
			if ld.Label(i) == t.goldOf(ld, i) {
				ok++
			}
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return ok / n
}

// Train runs SampleRank over the corpus, returning the trainer for
// inspection; t is a trainer (see NewTrainer). A step costs about 0.2 µs and allocates nothing, so the one
// million steps of a 50 000-token corpus take about 0.25 s on one core of
// a 2-CPU linux/amd64 machine; tests use far fewer.
func (t *Tagger) Train(steps int, rate float64, seed int64) *learn.SampleRank {
	sr := learn.NewSampleRank(t.Model.W, t, rate, seed)
	sr.Walk = learn.WalkByObjective
	sr.Train(steps)
	return sr
}
