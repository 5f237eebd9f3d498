package ie

import (
	"testing"
)

func TestSpansExtraction(t *testing.T) {
	// he(B-PER) saw(O) Hillary(B-PER) Clinton(I-PER) speaks(O) — the
	// appendix's example: two mentions.
	labels := []Label{LBPer, LO, LBPer, LIPer, LO}
	spans := Spans(labels)
	if len(spans) != 2 {
		t.Fatalf("spans = %v, want 2", spans)
	}
	if spans[0] != (Span{0, 1, LBPer.EntityType()}) {
		t.Errorf("span 0 = %+v", spans[0])
	}
	if spans[1] != (Span{2, 4, LBPer.EntityType()}) {
		t.Errorf("span 1 = %+v", spans[1])
	}
}

func TestSpansAdjacentMentions(t *testing.T) {
	// B-PER B-PER = two adjacent single-token mentions.
	spans := Spans([]Label{LBPer, LBPer})
	if len(spans) != 2 {
		t.Fatalf("adjacent B-B spans = %v", spans)
	}
	// B-PER I-ORG: type switch without B opens a new span (lenient).
	spans = Spans([]Label{LBPer, LIOrg})
	if len(spans) != 2 || spans[1].Type != LBOrg.EntityType() {
		t.Fatalf("type-switch spans = %v", spans)
	}
	// Stray I-PER at the start opens a span.
	spans = Spans([]Label{LIPer, LIPer, LO})
	if len(spans) != 1 || spans[0] != (Span{0, 2, LBPer.EntityType()}) {
		t.Fatalf("stray-I spans = %v", spans)
	}
	// Trailing mention is flushed.
	spans = Spans([]Label{LO, LBLoc, LILoc})
	if len(spans) != 1 || spans[0].End != 3 {
		t.Fatalf("trailing spans = %v", spans)
	}
	if Spans(nil) != nil {
		t.Error("empty labels should yield no spans")
	}
}

func TestSpanF1PerfectAndEmpty(t *testing.T) {
	c, _ := Generate(DefaultGenConfig(500, 3))
	tg := newTagger(NewModel(BuildVocab(c), false), c)
	// All-O: no predicted spans, recall 0, F1 0.
	rep := tg.SpanF1()
	if rep.Predicted != 0 || rep.Recall != 0 || rep.F1 != 0 {
		t.Errorf("all-O report = %v", rep)
	}
	if rep.Gold == 0 {
		t.Fatal("corpus has no gold spans")
	}
	// Copy gold into the hypothesis: perfect score.
	for _, ld := range tg.Docs {
		for i := range ld.Labels {
			ld.Labels[i] = ld.ix.gold[i]
		}
	}
	rep = tg.SpanF1()
	if rep.F1 != 1 || rep.Precision != 1 || rep.Recall != 1 {
		t.Errorf("gold-copy report = %v", rep)
	}
	if rep.String() == "" {
		t.Error("String empty")
	}
}

func TestSpanF1PartialCredit(t *testing.T) {
	doc := Doc{ID: 0, Tokens: []Token{
		{Str: "Hillary", Gold: LBPer}, {Str: "Clinton", Gold: LIPer},
		{Str: "visited", Gold: LO}, {Str: "IBM", Gold: LBOrg},
	}}
	c := &Corpus{Docs: []Doc{doc}, NumTokens: 4}
	tg := newTagger(NewModel(BuildVocab(c), false), c)
	// Predict the ORG but truncate the PER span: 1 hit of 2 gold, 2 predicted.
	tg.Docs[0].Labels = []Label{LBPer, LO, LO, LBOrg}
	rep := tg.SpanF1()
	if rep.Hits != 1 || rep.Predicted != 2 || rep.Gold != 2 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Precision != 0.5 || rep.Recall != 0.5 || rep.F1 != 0.5 {
		t.Errorf("P/R/F1 = %v/%v/%v", rep.Precision, rep.Recall, rep.F1)
	}
}
