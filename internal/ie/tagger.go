package ie

import (
	"errors"
	"fmt"
	"math/rand"

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

// LabelCol is the column index of the hidden LABEL attribute.
const LabelCol = 3

// truthCol is the column index of the gold TRUTH attribute.
const truthCol = 4

// Declare declares TOKEN.LABEL, the column the tagger samples, hidden in
// db: LoadCorpus does so for the world it loads, and a recovered world,
// whose snapshot does not carry the declaration, gets it here.
func Declare(db *relstore.DB) error { return db.DeclareHidden(TokenRelation, LabelCol) }

// LoadCorpus materializes the corpus into a fresh TOKEN relation in db,
// with LABEL initialized to init. Rows follow the index's layout: token i
// of document d is row first+i, first being the tokens of the documents
// before it. The label inventory takes the first LABEL and TRUTH codes,
// in Label order, so no flip ever has to intern one.
func LoadCorpus(db *relstore.DB, c *Corpus, init Label) error {
	rel, err := db.Create(TokenSchema())
	if err != nil {
		return err
	}
	if err := Declare(db); err != nil {
		return err
	}
	for _, col := range []int{LabelCol, truthCol} {
		if err := rel.Intern(col, LabelNames[:]...); err != nil {
			return err
		}
	}
	tokID := int64(0)
	for d := range c.Docs {
		doc := &c.Docs[d]
		for _, t := range doc.Tokens {
			if _, err := rel.Insert(relstore.Tuple{
				relstore.Int(tokID),
				relstore.Int(int64(doc.ID)),
				relstore.String(t.Str),
				labelValues[init],
				labelValues[t.Gold],
			}); err != nil {
				return fmt.Errorf("ie: loading corpus: %w", err)
			}
			tokID++
		}
	}
	return nil
}

// Tagger holds the in-memory inference state for a corpus and implements
// both the MCMC proposal distribution of Section 5.1 and the SampleRank
// training interface. When bound to a change log, accepted proposals are
// written through to the TOKEN relation, feeding the Δ⁻/Δ⁺ tables.
type Tagger struct {
	Model *Model
	Docs  []*LabeledDoc
	// Index is the shared read-only corpus index the documents read
	// their token ids, capitalization and skip edges from.
	Index *CorpusIndex

	// ActiveDocs and StepsPerBatch reproduce the paper's batching: up to
	// ActiveDocs documents' variables form the working set L, re-drawn
	// every StepsPerBatch proposals. Zero values mean "all documents /
	// never refresh".
	ActiveDocs    int
	StepsPerBatch int

	// Write-through binding: the LABEL column of TOKEN, resolved once.
	bound bool
	field world.Field

	active       []int
	sinceRefresh int

	// The pending move of the two-phase proposal protocol: position i of
	// document d takes newLabel.
	d, i     int
	newLabel Label
}

// labelValues are the stored forms of the label inventory, built once so
// a flip does not re-box its label string.
var labelValues = func() (vs [NumLabels]relstore.Value) {
	for l := range vs {
		vs[l] = relstore.String(LabelNames[l])
	}
	return vs
}()

// NewTagger builds inference state for every document of the indexed
// corpus with all labels initialized to init (the paper initializes LABEL
// to "O"). θ must be sized for the index's strings; the tagger shares
// the index and owns only its labels — one byte per token.
func NewTagger(m *Model, ix *CorpusIndex, init Label) *Tagger {
	labels := make([]Label, ix.tokens)
	for i := range labels {
		labels[i] = init
	}
	lds := make([]LabeledDoc, len(ix.docs))
	t := &Tagger{Model: m, Docs: make([]*LabeledDoc, len(ix.docs)), Index: ix}
	for d := range ix.docs {
		k := len(ix.docs[d].strIDs)
		lds[d] = LabeledDoc{Labels: labels[:k:k], ix: &ix.docs[d]}
		labels = labels[k:]
		t.Docs[d] = &lds[d]
	}
	return t
}

// BindDB connects the tagger to a database change log so accepted label
// flips propagate to the TOKEN relation, whose rows must follow
// LoadCorpus's layout of the indexed corpus. A relation that has not
// issued every id the index addresses would make flips miss their rows
// silently, so it is refused.
func (t *Tagger) BindDB(log *world.ChangeLog) error {
	field, err := log.Field(TokenRelation, LabelCol)
	if err != nil {
		return err
	}
	rel, _ := log.DB().Relation(TokenRelation) // Field found it
	if n := relstore.RowID(t.Index.tokens); n > rel.NextID() {
		return fmt.Errorf("ie: the index addresses %d %s rows, but the relation has issued only %d ids", n, TokenRelation, rel.NextID())
	}
	t.bound, t.field = true, field
	return nil
}

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
	ld := t.Docs[d]
	return d, rng.Intn(len(ld.Labels))
}

// candidate draws a proposed new label: uniform over the inventory.
func (t *Tagger) candidate(rng *rand.Rand) Label {
	return Label(rng.Intn(NumLabels))
}

// apply commits a label flip to memory and, when bound, to the database.
func (t *Tagger) apply(d, i int, newLabel Label) {
	t.Docs[d].Labels[i] = newLabel
	if t.bound {
		if err := t.field.Set(relstore.RowID(t.Docs[d].ix.first+i), labelValues[newLabel]); err != nil {
			// A row deleted by DML (the write path mutates evidence while
			// chains keep walking) simply stops mirroring: the in-memory
			// variable keeps being sampled, the store no longer holds the
			// tuple. Anything else is a program bug — BindDB checked that
			// the relation issued every row and labels come from the fixed
			// inventory.
			if errors.Is(err, relstore.ErrNotFound) {
				return
			}
			panic(fmt.Sprintf("ie: write-through failed: %v", err))
		}
	}
}

// Propose implements mcmc.Proposer: the proposal distribution of
// Section 5.1 (uniform variable, uniform label, symmetric).
func (t *Tagger) Propose(rng *rand.Rand) mcmc.Proposal {
	ld := t.draw(rng)
	return mcmc.Proposal{LogScoreDelta: t.Model.ScoreDelta(ld, t.i, t.newLabel)}
}

// draw picks the pending move — a position and a candidate label for it —
// and returns the document it lies in.
func (t *Tagger) draw(rng *rand.Rand) *LabeledDoc {
	t.d, t.i = t.pick(rng)
	ld := t.Docs[t.d]
	t.newLabel = t.candidate(rng)
	return ld
}

// Accept implements mcmc.Proposer and learn.Proposer: it commits the
// pending move. Proposing the label a position already has is a no-op.
func (t *Tagger) Accept() {
	if t.Docs[t.d].Labels[t.i] != t.newLabel {
		t.apply(t.d, t.i, t.newLabel)
	}
}

// ProposeRank implements learn.Proposer for SampleRank training. The
// objective is per-token accuracy against the gold labels.
func (t *Tagger) ProposeRank(rng *rand.Rand, d *learn.Delta) float64 {
	ld := t.draw(rng)
	i, newLabel := t.i, t.newLabel
	t.Model.FeatureDelta(d, ld, i, newLabel)
	gold, old := ld.ix.gold[i], ld.Labels[i]
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
// gold.
func (t *Tagger) Accuracy() float64 {
	var ok, n float64
	for _, ld := range t.Docs {
		for i, l := range ld.Labels {
			if l == ld.ix.gold[i] {
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
// inspection. A step costs about 0.2 µs and allocates nothing, so the one
// million steps of a 50 000-token corpus take about 0.25 s on one core of
// a 2-CPU linux/amd64 machine; tests use far fewer.
func (t *Tagger) Train(steps int, rate float64, seed int64) *learn.SampleRank {
	sr := learn.NewSampleRank(t.Model.W, t, rate, seed)
	sr.Walk = learn.WalkByObjective
	sr.Train(steps)
	return sr
}
