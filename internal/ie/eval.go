package ie

import "fmt"

// Span-level NER evaluation: the standard CoNLL metric. A predicted
// entity span (contiguous B-T, I-T, ... sequence) counts as correct only
// when both its boundaries and its type match a gold span exactly.

// Span is one entity mention: token positions [Start, End) of type Type.
type Span struct {
	Start, End int
	Type       uint8
}

// Spans extracts entity spans from a BIO label sequence. Malformed
// sequences (I-T without a matching opener) are interpreted leniently, as
// is conventional: the stray I-T opens a new span.
func Spans(labels []Label) []Span {
	var out []Span
	var cur *Span
	flush := func() {
		if cur != nil {
			out = append(out, *cur)
			cur = nil
		}
	}
	for i, l := range labels {
		switch {
		case l == LO:
			flush()
		case l.IsBegin():
			flush()
			cur = &Span{Start: i, End: i + 1, Type: l.EntityType()}
		case l.IsInside():
			if cur != nil && cur.Type == l.EntityType() {
				cur.End = i + 1
			} else {
				flush()
				cur = &Span{Start: i, End: i + 1, Type: l.EntityType()}
			}
		}
	}
	flush()
	return out
}

// F1Report holds span-level precision/recall/F1, optionally per type.
type F1Report struct {
	Precision, Recall, F1 float64
	Predicted, Gold, Hits int
}

// String renders the report.
func (r F1Report) String() string {
	return fmt.Sprintf("P=%.3f R=%.3f F1=%.3f (pred %d, gold %d, hits %d)",
		r.Precision, r.Recall, r.F1, r.Predicted, r.Gold, r.Hits)
}

// SpanF1 scores the tagger's current hypothesis against gold labels at
// span level across all documents; t is a trainer (see NewTrainer).
func (t *Tagger) SpanF1() F1Report {
	var rep F1Report
	var gold, pred []Label
	for _, ld := range t.Docs {
		gold, pred = gold[:0], pred[:0]
		for i := range ld.Len() {
			gold = append(gold, t.goldOf(ld, i))
			pred = append(pred, ld.Label(i))
		}
		gs := Spans(gold)
		ps := Spans(pred)
		rep.Gold += len(gs)
		rep.Predicted += len(ps)
		gset := make(map[Span]bool, len(gs))
		for _, s := range gs {
			gset[s] = true
		}
		for _, s := range ps {
			if gset[s] {
				rep.Hits++
			}
		}
	}
	if rep.Predicted > 0 {
		rep.Precision = float64(rep.Hits) / float64(rep.Predicted)
	}
	if rep.Gold > 0 {
		rep.Recall = float64(rep.Hits) / float64(rep.Gold)
	}
	if rep.Precision+rep.Recall > 0 {
		rep.F1 = 2 * rep.Precision * rep.Recall / (rep.Precision + rep.Recall)
	}
	return rep
}
