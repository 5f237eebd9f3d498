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

// LoadCorpus materializes the corpus into a fresh TOKEN relation in db,
// with LABEL initialized to init. It returns, per document, the RowIDs of
// its tokens in order.
func LoadCorpus(db *relstore.DB, c *Corpus, init Label) ([][]relstore.RowID, error) {
	rel, err := db.Create(TokenSchema())
	if err != nil {
		return nil, err
	}
	rows := make([][]relstore.RowID, len(c.Docs))
	tokID := int64(0)
	for d := range c.Docs {
		doc := &c.Docs[d]
		rows[d] = make([]relstore.RowID, len(doc.Tokens))
		for i, t := range doc.Tokens {
			id, err := rel.Insert(relstore.Tuple{
				relstore.Int(tokID),
				relstore.Int(int64(doc.ID)),
				relstore.String(t.Str),
				relstore.String(init.String()),
				relstore.String(t.Gold.String()),
			})
			if err != nil {
				return nil, fmt.Errorf("ie: loading corpus: %w", err)
			}
			rows[d][i] = id
			tokID++
		}
	}
	return rows, nil
}

// Tagger holds the in-memory inference state for a corpus and implements
// both the MCMC proposal distribution of Section 5.1 and the SampleRank
// training interface. When bound to a change log, accepted proposals are
// written through to the TOKEN relation, feeding the Δ⁻/Δ⁺ tables.
type Tagger struct {
	Model *Model
	Docs  []*LabeledDoc

	// ConstrainBIO restricts proposals to labels that keep the BIO
	// encoding locally valid (the "more intelligent jump function"
	// suggested in Appendix 9.3). The constrained candidate set depends
	// only on unchanged neighbors, so proposals remain symmetric.
	ConstrainBIO bool

	// ActiveDocs and StepsPerBatch reproduce the paper's batching: up to
	// ActiveDocs documents' variables form the working set L, re-drawn
	// every StepsPerBatch proposals. Zero values mean "all documents /
	// never refresh".
	ActiveDocs    int
	StepsPerBatch int

	// Write-through binding: the LABEL column of TOKEN, resolved once.
	bound bool
	field world.Field
	rows  [][]relstore.RowID

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

// NewTagger builds inference state for every document of the corpus.
func NewTagger(m *Model, c *Corpus, init Label) *Tagger {
	t := &Tagger{Model: m}
	for d := range c.Docs {
		t.Docs = append(t.Docs, NewLabeledDoc(&c.Docs[d], m.Vocab, init))
	}
	return t
}

// BindDB connects the tagger to a database change log so accepted label
// flips propagate to the TOKEN relation. rows must come from LoadCorpus
// on the same corpus.
func (t *Tagger) BindDB(log *world.ChangeLog, rows [][]relstore.RowID) error {
	if len(rows) != len(t.Docs) {
		return fmt.Errorf("ie: row map covers %d docs, tagger has %d", len(rows), len(t.Docs))
	}
	for d, ld := range t.Docs {
		if len(rows[d]) != len(ld.Labels) {
			return fmt.Errorf("ie: doc %d row map has %d tokens, want %d", d, len(rows[d]), len(ld.Labels))
		}
	}
	field, err := log.Field(TokenRelation, LabelCol)
	if err != nil {
		return err
	}
	t.bound, t.field, t.rows = true, field, rows
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

// candidate draws a proposed new label for position i of doc d.
func (t *Tagger) candidate(rng *rand.Rand, ld *LabeledDoc, i int) Label {
	if !t.ConstrainBIO {
		return Label(rng.Intn(NumLabels))
	}
	// Valid relabelings keep this position consistent with its left
	// neighbor and the right neighbor consistent with this position.
	var valid [NumLabels]Label
	n := 0
	for l := Label(0); l < NumLabels; l++ {
		if i > 0 && !l.ValidAfter(ld.Labels[i-1]) {
			continue
		}
		if i == 0 && l.IsInside() {
			continue
		}
		if i+1 < len(ld.Labels) && !ld.Labels[i+1].ValidAfter(l) {
			continue
		}
		valid[n] = l
		n++
	}
	if n == 0 {
		return ld.Labels[i]
	}
	return valid[rng.Intn(n)]
}

// apply commits a label flip to memory and, when bound, to the database.
func (t *Tagger) apply(d, i int, newLabel Label) {
	t.Docs[d].Labels[i] = newLabel
	if t.bound {
		if err := t.field.Set(t.rows[d][i], labelValues[newLabel]); err != nil {
			// A row deleted by DML (the write path mutates evidence while
			// chains keep walking) simply stops mirroring: the in-memory
			// variable keeps being sampled, the store no longer holds the
			// tuple. Anything else is a program bug — the row map is
			// validated at BindDB time and labels come from the fixed
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
	t.newLabel = t.candidate(rng, ld, t.i)
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
func (t *Tagger) ProposeRank(rng *rand.Rand) learn.Proposal {
	ld := t.draw(rng)
	i, newLabel := t.i, t.newLabel
	obj := 0.0
	gold := ld.Doc.Tokens[i].Gold
	old := ld.Labels[i]
	if newLabel != old {
		if newLabel == gold {
			obj = 1
		} else if old == gold {
			obj = -1
		}
	}
	return learn.Proposal{
		FeatureDelta:   t.Model.FeatureDelta(ld, i, newLabel),
		ObjectiveDelta: obj,
	}
}

// Accuracy returns the fraction of tokens whose current label matches
// gold.
func (t *Tagger) Accuracy() float64 {
	var ok, n float64
	for _, ld := range t.Docs {
		for i, l := range ld.Labels {
			if l == ld.Doc.Tokens[i].Gold {
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

// SetAll sets every label (memory and database) to l; used to reset the
// world between experiments.
func (t *Tagger) SetAll(l Label) {
	for d, ld := range t.Docs {
		for i := range ld.Labels {
			if ld.Labels[i] != l {
				t.apply(d, i, l)
			}
		}
	}
}

// Train runs SampleRank over the corpus, returning the trainer for
// inspection. The paper trains with one million steps "in a matter of
// minutes"; tests use far fewer.
func (t *Tagger) Train(steps int, rate float64, seed int64) *learn.SampleRank {
	sr := learn.NewSampleRank(t.Model.W, t, rate, seed)
	sr.Walk = learn.WalkByObjective
	sr.Train(steps)
	return sr
}
